package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"contribmax/internal/cm"
	"contribmax/internal/im"
	"contribmax/internal/obs"
)

// closedConfig is a closed-loop solve workload: one caller runs solves back
// to back over a fixed sequence of (instance, rng seed) pairs.
type closedConfig struct {
	spec     spec
	pool     int // instances generated from the workload seed
	targets  int // |T2|
	k        int
	theta    int
	par      int
	rngSeeds []uint64
	sampled  bool // MagicSampledCM; otherwise NaiveCM
	// scoreSamples is the Monte-Carlo sample count for seed_contribution.
	scoreSamples int
}

var closedWorkloads = map[string]closedConfig{
	"magics-amie": {
		spec: spec{"AMIE", 8}, pool: 32, targets: 30, k: 10,
		theta: 150, par: 1, rngSeeds: []uint64{11, 12}, sampled: true,
		scoreSamples: 1000,
	},
	"naive-explain": {
		spec: spec{"Explain", 160}, pool: 8, targets: 30, k: 10,
		theta: 1000, par: 2, rngSeeds: []uint64{11, 12}, sampled: false,
		scoreSamples: 300,
	},
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// minOps is the least number of operations a run completes, so that p90
// has minTail samples beyond it.
var minOps = minSamplesFor(0.9)

// hardStop bounds a run that cannot reach minOps in time.
const hardStop = 150 * time.Second

// pair is one operation of the fixed sequence.
type pair struct {
	inst    int
	rngSeed uint64
}

// closedRun holds a set-up closed-loop workload.
type closedRun struct {
	cfg   closedConfig
	insts []*instance
	seq   []pair
}

// setupClosed generates the instance pool from seed and warms up with one
// solve. tr, when non-nil, records the parse and load spans.
func setupClosed(cfg closedConfig, seed uint64, tr *tracer) (*closedRun, error) {
	run := &closedRun{cfg: cfg}
	root := tr.begin(0, 0, "setup")
	defer root.end()
	for i := 0; i < cfg.pool; i++ {
		rng := rand.New(rand.NewPCG(seed, uint64(i)))
		in, err := genInstance(cfg.spec, rng, cfg.targets, tr, root.id)
		if err != nil {
			return nil, err
		}
		run.insts = append(run.insts, in)
	}
	for _, s := range cfg.rngSeeds {
		for i := range run.insts {
			run.seq = append(run.seq, pair{inst: i, rngSeed: s})
		}
	}
	if _, err := run.solve(run.seq[0], nil); err != nil {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	return run, nil
}

// solve runs one operation through the solver. trace, when non-nil,
// receives cm's phase spans.
func (r *closedRun) solve(p pair, trace *obs.Span) (*cm.Result, error) {
	in := r.insts[p.inst]
	opts := cm.Options{
		Theta:       im.ThetaSpec{Explicit: r.cfg.theta},
		Rand:        solveRand(p.rngSeed),
		Parallelism: r.cfg.par,
		Trace:       trace,
	}
	input := cm.Input{Program: in.prog, DB: in.db, T2: in.targets, K: r.cfg.k}
	if r.cfg.sampled {
		return cm.MagicSampledCM(input, opts)
	}
	return cm.NaiveCM(input, opts)
}

// check verifies one answer and its repeat consistency; answers maps each
// pair to the answer key of its first occurrence.
func (r *closedRun) check(p pair, res *cm.Result, answers map[pair]string) error {
	seeds := seedStrings(res)
	if err := checkSeeds(seeds, res.SeedGains, r.cfg.k, r.insts[p.inst].t1); err != nil {
		return err
	}
	key := answerKey(seeds, res.SeedGains) + fmt.Sprintf("|%v", res.EstContribution)
	if prev, ok := answers[p]; ok && prev != key {
		return fmt.Errorf("repeat of instance %d seed %d differs: %q then %q", p.inst, p.rngSeed, prev, key)
	} else if !ok {
		answers[p] = key
	}
	return nil
}

// setupMedian runs setup setupReps times and returns the median time in
// seconds; setup keeps the products of its last run.
func setupMedian(setup func() error) (float64, error) {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

// runClosed runs a closed-loop workload untraced and reports the end-to-end
// metrics.
func runClosed(cfg closedConfig, o runOptions, rep *report) error {
	var run *closedRun
	setupS, err := setupMedian(func() error {
		var err error
		run, err = setupClosed(cfg, o.seed, nil)
		return err
	})
	if err != nil {
		return err
	}
	rep.setupDone(setupS, run.describe())

	answers := map[pair]string{}
	scored := map[int][]string{}
	var lat, cycleRate, cycleCPU []float64
	w := startWindow()
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	cycleStart, cycleCPUStart, cycleOK := w.start, processCPU(), 0
	for i := 0; ; i++ {
		if i > 0 && i%len(run.seq) == 0 {
			n := float64(len(run.seq))
			cycleRate = append(cycleRate, float64(cycleOK)/time.Since(cycleStart).Seconds())
			cycleCPU = append(cycleCPU, ms(processCPU()-cycleCPUStart)/n)
			cycleStart, cycleCPUStart, cycleOK = time.Now(), processCPU(), 0
		}
		// Runs end on a whole cycle of the sequence, so every instance and
		// rng seed weighs the same in every run.
		if i%len(run.seq) == 0 && (!time.Now().Before(deadline) && i >= minOps || time.Since(w.start) > hardStop) {
			break
		}
		p := run.seq[i%len(run.seq)]
		t0 := time.Now()
		res, err := run.solve(p, nil)
		lat = append(lat, msSince(t0))
		rep.attempted++
		if err == nil {
			err = run.check(p, res, answers)
		}
		if err != nil {
			rep.fail(fmt.Errorf("op %d (%s #%d, rng seed %d): %w", i, cfg.spec, p.inst, p.rngSeed, err))
			continue
		}
		cycleOK++
		if p.rngSeed == cfg.rngSeeds[0] && scored[p.inst] == nil {
			scored[p.inst] = seedStrings(res)
		}
	}
	tot := w.stop()
	rep.window(tot, lat)
	// Every cycle is the same work, so the median cycle discounts a burst of
	// host contention that a whole-window average would absorb.
	rep.set("solves_per_s", "1/s", median(cycleRate), len(lat)-rep.failed)
	rep.set("cpu_ms_per_solve", "ms", median(cycleCPU), len(lat))
	rep.note("solves_per_s and cpu_ms_per_solve: medians over %d cycles of %d operations", len(cycleRate), len(run.seq))

	score, err := run.score(scored)
	if err != nil {
		return err
	}
	if len(scored) > 0 {
		rep.set("seed_contribution", "targets", score, len(scored))
	}
	return nil
}

// describe summarizes the instance pool for the report.
func (r *closedRun) describe() string {
	facts, derived := 0, 0
	for _, in := range r.insts {
		facts += len(in.t1)
		derived += in.derived
	}
	n := len(r.insts)
	return fmt.Sprintf("%d x %s (mean %d edb facts, %d derived tuples), |T2|=%d k=%d theta=%d P=%d, %d ops per cycle",
		n, r.cfg.spec, facts/n, derived/n, r.cfg.targets, r.cfg.k, r.cfg.theta, r.cfg.par, len(r.seq))
}

// score is seed_contribution: the mean over the pool of the percolation
// oracle's expected number of targets reached from each instance's seeds
// (first rng seed of the sequence), with a fixed sample count and
// estimator seed.
func (r *closedRun) score(seeds map[int][]string) (float64, error) {
	var vals []float64
	for i, in := range r.insts {
		s, ok := seeds[i]
		if !ok {
			continue
		}
		v, err := oracle(in, in.targets, s, r.cfg.scoreSamples)
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return mean(vals), nil
}

// runClosedTraced runs a closed-loop workload with spans: an untraced
// calibration pass over one cycle of the sequence, then traced operations
// that each run the real solve and its replay, reconciled.
func runClosedTraced(cfg closedConfig, o runOptions, rep *report) error {
	var tr *tracer
	var run *closedRun
	setupS, err := setupMedian(func() error {
		tr = &tracer{}
		var err error
		run, err = setupClosed(cfg, o.seed, tr)
		return err
	})
	if err != nil {
		return err
	}
	rep.setupDone(setupS, run.describe())
	setupTimes := totalTimes(tr.snapshot())
	parsed := 0
	for _, in := range run.insts {
		parsed += len(in.progText) + len(in.factsText)
	}
	n := float64(len(run.insts))
	rep.layer("parser.parse_ms", ms(setupTimes["parser.parse"])/n)
	rep.layer("parser.bytes", float64(parsed)/n)
	rep.layer("db.load_ms", ms(setupTimes["db.load"])/n)

	// Calibration: the GC work of one untraced cycle.
	answers := map[pair]string{}
	calib := len(run.seq)
	w := startWindow()
	for i := 0; i < calib; i++ {
		res, err := run.solve(run.seq[i], nil)
		if err == nil {
			err = run.check(run.seq[i], res, answers)
		}
		if err != nil {
			return fmt.Errorf("calibration op %d: %w", i, err)
		}
	}
	gc := w.stop()
	rep.layer("go.gc_cycles", float64(gc.gcCycles)/float64(calib))
	rep.layer("go.gc_cpu_ms", ms(gc.gcCPU)/float64(calib))

	var (
		acc       layerAcc
		traced    time.Duration
		untraced  time.Duration
		unreconc  int
		firstDiff []string
	)
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for i := 0; (time.Now().Before(deadline) || i < calib) && i < 4*len(run.seq); i++ {
		p := run.seq[i%len(run.seq)]
		in := run.insts[p.inst]
		sp := obs.StartSpan("solve")
		res, err := run.solve(p, sp)
		sp.End()
		rep.attempted++
		if err == nil {
			err = run.check(p, res, answers)
		}
		if err != nil {
			rep.fail(fmt.Errorf("traced op %d: %w", i, err))
			continue
		}
		ri := replayInput{prog: in.prog, db: in.db, targets: in.targets, k: cfg.k, theta: cfg.theta, par: cfg.par, rngSeed: p.rngSeed}
		replay := func(tr *tracer) (shape, layerWork, time.Duration, error) {
			t0 := time.Now()
			var sh shape
			var lw layerWork
			var err error
			if cfg.sampled {
				sh, lw, err = replayMagicSampled(ri, tr, i+1)
			} else {
				sh, lw, err = replayNaive(ri, tr, i+1)
			}
			return sh, lw, time.Since(t0) - lw.extra, err
		}
		// The same replay runs with spans and without, in alternating order,
		// for bench.trace_overhead.
		var untracedD time.Duration
		if i%2 == 1 {
			if _, _, untracedD, err = replay(nil); err != nil {
				return fmt.Errorf("untraced replay of op %d: %w", i, err)
			}
		}
		sh, lw, tracedD, err := replay(tr)
		if err != nil {
			return fmt.Errorf("replay of op %d: %w", i, err)
		}
		if i%2 == 0 {
			if _, _, untracedD, err = replay(nil); err != nil {
				return fmt.Errorf("untraced replay of op %d: %w", i, err)
			}
		}
		traced += tracedD
		untraced += untracedD
		if diffs := reconcile(sh, shapeOf(res)); len(diffs) > 0 {
			unreconc++
			if firstDiff == nil {
				firstDiff = diffs
			}
		}
		acc.add(res, sp, lw)
	}
	spans := tr.snapshot()
	rep.reconciled(acc.ops, unreconc, firstDiff)
	acc.report(rep, selfTimes(spans), cfg)
	rep.layer("bench.trace_overhead", float64(traced)/float64(untraced)-1)
	rep.layer("bench.gen_lag_p90_ms", 0)
	rep.idleLayers()
	if err := writeSpans(o.spanPath(), spans); err != nil {
		return err
	}
	rep.note("spans written to %s (%d spans)", o.spanPath(), len(spans))
	return nil
}

// layerAcc accumulates per-operation layer figures of a traced run.
type layerAcc struct {
	ops int
	lw  layerWork
	// From the real solves' cm.Stats and phase spans.
	prepare, build, rrgen, sel time.Duration
	graphBuilds, planHits      int64
}

func (a *layerAcc) add(res *cm.Result, sp *obs.Span, lw layerWork) {
	a.ops++
	if p := sp.Find("prepare"); p != nil {
		a.prepare += p.Dur
	}
	a.build += res.Stats.BuildTime
	a.rrgen += res.Stats.RRGenTime
	a.sel += res.Stats.SelectTime
	a.graphBuilds += int64(res.Stats.GraphBuilds)
	a.planHits += res.Stats.PlanCacheHits
	t := &a.lw
	t.transforms += lw.transforms
	t.clones += lw.clones
	t.compiles += lw.compiles
	t.rounds += lw.rounds
	t.instantiations += lw.instantiations
	t.suppressed += lw.suppressed
	t.builds += lw.builds
	t.graphSize += lw.graphSize
	t.maxGraphBytes += lw.maxGraphBytes
	t.walkNodes += lw.walkNodes
	t.rrSets += lw.rrSets
	t.rrMembers += lw.rrMembers
	t.arenaBytes += lw.arenaBytes
	t.plansBuilt += lw.plansBuilt
	t.planHits += lw.planHits
	t.fixpointBare += lw.fixpointBare
	t.fixpointP1 += lw.fixpointP1
	t.fixpointP2 += lw.fixpointP2
}

// report emits the per-layer metrics, per operation.
func (a *layerAcc) report(rep *report, self map[string]time.Duration, cfg closedConfig) {
	if a.ops == 0 {
		return
	}
	n := float64(a.ops)
	per := func(v float64) float64 { return v / n }
	perMs := func(d time.Duration) float64 { return ms(d) / n }
	t := a.lw
	rep.layer("analysis.analyze_ms", perMs(self["analysis.analyze"]))
	rep.layer("db.scratch_clones", per(float64(t.clones)))
	rep.layer("magic.transforms", per(float64(t.transforms)))
	rep.layer("magic.transform_ms", perMs(self["magic.transform"]))
	rep.layer("planner.plans_built", per(float64(t.plansBuilt)))
	rep.layer("planner.cache_hits", per(float64(t.planHits)))
	rep.layer("engine.compiles", per(float64(t.compiles)))
	rep.layer("engine.compile_ms", perMs(self["engine.compile"]))
	rep.layer("engine.fixpoint_ms", perMs(t.fixpointBare))
	rep.layer("engine.rounds", per(float64(t.rounds)))
	rep.layer("engine.instantiations", per(float64(t.instantiations)))
	rep.layer("engine.suppressed_ratio", ratio(float64(t.suppressed), float64(t.suppressed+t.instantiations)))
	if t.fixpointP2 > 0 {
		rep.layer("engine.p2_speedup", float64(t.fixpointP1)/float64(t.fixpointP2))
	}
	rep.layer("wdgraph.builds", per(float64(t.builds)))
	rep.layer("wdgraph.graph_size", ratio(float64(t.graphSize), float64(t.builds)))
	rep.layer("wdgraph.listener_ms", perMs(self["engine.run_listener"]-t.fixpointBare))
	rep.layer("wdgraph.finalize_ms", perMs(self["wdgraph.finalize"]))
	rep.layer("wdgraph.walk_ms", perMs(self["wdgraph.walk"]))
	rep.layer("wdgraph.walk_nodes", per(float64(t.walkNodes)))
	rep.layer("wdgraph.graph_mb", per(float64(t.maxGraphBytes))/1e6)
	rep.layer("im.rr_sets", per(float64(t.rrSets)))
	rep.layer("im.rr_members", per(float64(t.rrMembers)))
	rep.layer("im.arena_mb", per(float64(t.arenaBytes))/1e6)
	rep.layer("im.select_ms", perMs(self["im.select"]))
	rep.layer("cm.prepare_ms", perMs(a.prepare))
	rep.layer("cm.build_ms", perMs(a.build))
	rep.layer("cm.rrgen_ms", perMs(a.rrgen))
	rep.layer("cm.select_ms", perMs(a.sel))
	rep.layer("cm.graph_builds", per(float64(a.graphBuilds)))
	rep.layer("cm.plan_cache_hits", per(float64(a.planHits)))
	rep.note("replay split per op: compile %.2f ms, listener-fixpoint %.2f ms (bare %.2f ms), finalize %.2f ms, walk %.2f ms, select %.2f ms",
		perMs(self["engine.compile"]), perMs(self["engine.run_listener"]), perMs(t.fixpointBare),
		perMs(self["wdgraph.finalize"]), perMs(self["wdgraph.walk"]), perMs(self["im.select"]))
}

func seedStrings(res *cm.Result) []string {
	out := make([]string, len(res.Seeds))
	for i, s := range res.Seeds {
		out[i] = s.String()
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msSince(t time.Time) float64 { return ms(time.Since(t)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
