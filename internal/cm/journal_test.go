package cm_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
	"time"

	"contribmax/internal/cm"
	"contribmax/internal/im"
	"contribmax/internal/obs"
	"contribmax/internal/obs/journal"
	"contribmax/internal/prof"
	"contribmax/internal/solvecache"
	"contribmax/internal/workload"
)

// journalInstance is a small two-chain TC instance with enough structure
// that every algorithm selects multiple seeds with non-trivial gains.
func journalInstance(t *testing.T, k int) cm.Input {
	t.Helper()
	d := mustFactsDB(t, `
		edge(a, b). edge(b, c). edge(c, d).
		edge(x, y). edge(y, z).
		edge(p, q).
	`)
	return cm.Input{
		Program: workload.TCProgramDirected(1.0, 0.8),
		DB:      d,
		T2:      atoms(t, "tc(a, d)", "tc(a, c)", "tc(x, z)", "tc(p, q)"),
		K:       k,
	}
}

func decodeJournal(t *testing.T, raw []byte) []journal.Event {
	t.Helper()
	var evs []journal.Event
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		var ev journal.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad journal line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// entry is one way into a solve: a public entry point on an instance.
// A replay entry solves twice over one Options.Cache and observes only the
// second solve, which the cache answers.
type entry struct {
	name string
	// requested is the algorithm solve.start names; fallback entries are
	// answered by MagicCM instead.
	requested string
	run       func(cm.Input, cm.Options) (*cm.Result, error)
	in        func(t *testing.T) cm.Input
	fallback  bool
	replay    bool
}

// entries lists every entry point the observability contract covers: the
// four paper algorithms, DNFCM, ExactCM answering exactly, ExactCM's
// eligibility fallback, DNFCM's lineage-budget fallback (the TC-12
// instance), and a cache replay.
func entries() []entry {
	ji := func(t *testing.T) cm.Input { return journalInstance(t, 3) }
	out := make([]entry, 0, len(algos)+5)
	for _, al := range risAlgos {
		out = append(out, entry{name: al.name, requested: al.name, run: al.run, in: ji})
	}
	return append(out,
		entry{name: "ExactCM", requested: "ExactCM", run: cm.ExactCM, in: func(t *testing.T) cm.Input {
			return exactCase(t, chainProg, `e(n1).`, []string{"b(n1)"}, 1)
		}},
		entry{name: "ExactCM-ineligible", requested: "ExactCM", run: cm.ExactCM, fallback: true, in: func(t *testing.T) cm.Input {
			return exactCase(t, `
				0.6 r1: tc(X, Y) :- e(X, Y).
				0.5 r2: tc(X, Y) :- tc(X, Z), e(Z, Y).
			`, `e(a, b). e(b, c).`, []string{"tc(a, c)"}, 1)
		}},
		entry{name: "DNFCM-budget", requested: "DNFCM", run: cm.DNFCM, fallback: true, in: profileInstance},
		entry{name: "NaiveCM-replay", requested: "NaiveCM", run: cm.NaiveCM, replay: true, in: ji},
	)
}

// solve runs e on in with opts. A replay entry first solves cold with
// opts' sinks removed, then solves again with them over the same cache.
func (e entry) solve(in cm.Input, opts cm.Options) (*cm.Result, error) {
	if !e.replay {
		return e.run(in, opts)
	}
	opts.Cache = solvecache.New(0)
	opts.CacheID = solvecache.Identity{Rand: "entry"}
	cold := opts
	cold.Obs, cold.Trace, cold.Journal, cold.Profile = nil, nil, nil, nil
	if _, err := e.run(in, cold); err != nil {
		return nil, err
	}
	return e.run(in, opts)
}

// phaseTime sums the phase spans (build, lineage, rrgen, select) under sp,
// a fallback's nested ones included.
func phaseTime(sp *obs.Span) time.Duration {
	var d time.Duration
	for _, c := range sp.Children {
		switch c.Name {
		case "build", "lineage", "rrgen", "select":
			d += c.Dur
		}
		d += phaseTime(c)
	}
	return d
}

// TestJournalRoundTrip is the acceptance criterion: at every entry point,
// the JSONL journal is one solve — one solve.start first naming the
// requested algorithm, one solve.finish last naming the answering one —
// with a plan.summary whenever plans were built, and its per-iteration
// select.iter records reconstruct the exact seed set and total coverage
// the solver reported. TotalTime (and with it solve.finish's duration and
// cm.solve_ns) covers every phase the trace timed, an abandoned attempt's
// included, and a fallback's spans nest under the requested algorithm's.
func TestJournalRoundTrip(t *testing.T) {
	for _, e := range entries() {
		t.Run(e.name, func(t *testing.T) {
			var sink bytes.Buffer
			j := journal.New("", journal.Options{Sink: &sink})
			reg := obs.NewRegistry()
			root := obs.StartSpan("test")
			in := e.in(t)
			res, err := e.solve(in, cm.Options{
				Theta:   im.ThetaSpec{Explicit: 300},
				Rand:    rand.New(rand.NewPCG(7, 9)),
				Obs:     reg,
				Trace:   root,
				Journal: j,
			})
			if err != nil {
				t.Fatal(err)
			}
			root.End()
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			evs := decodeJournal(t, sink.Bytes())
			if len(evs) < 2 || evs[0].Type != journal.TypeSolveStart || evs[len(evs)-1].Type != journal.TypeSolveFinish {
				t.Fatalf("journal does not open with solve.start and close with solve.finish: %d events", len(evs))
			}
			if got := res.Stats.ExactFallback != ""; got != e.fallback {
				t.Fatalf("fallback %q, want fallback=%v", res.Stats.ExactFallback, e.fallback)
			}
			if e.replay && res.Stats.CacheRRHits != 1 {
				t.Fatalf("replay entry: rr hits = %d, want 1", res.Stats.CacheRRHits)
			}

			var start, finish, plans int
			var seeds []string
			covered, lastCoverage := 0, 0.0
			for _, ev := range evs {
				if ev.Run != j.Run() {
					t.Fatalf("event %d run %q != journal run %q", ev.Seq, ev.Run, j.Run())
				}
				switch ev.Type {
				case journal.TypeSolveStart:
					start++
					if ev.Solve.Algorithm != e.requested {
						t.Errorf("start algorithm %q, want %q", ev.Solve.Algorithm, e.requested)
					}
					if ev.Solve.K != in.K || ev.Solve.Theta != 300 || ev.Solve.Fingerprint == "" {
						t.Errorf("start payload %+v", ev.Solve)
					}
				case journal.TypeSolveFinish:
					finish++
					if ev.Finish.Algorithm != res.Algorithm {
						t.Errorf("finish algorithm %q, want %q", ev.Finish.Algorithm, res.Algorithm)
					}
					if ev.Finish.CoveredRR != res.Stats.CoveredRR || ev.Finish.NumRR != res.Stats.NumRR {
						t.Errorf("finish coverage %d/%d, want %d/%d",
							ev.Finish.CoveredRR, ev.Finish.NumRR, res.Stats.CoveredRR, res.Stats.NumRR)
					}
					if ev.Finish.EstContribution != res.EstContribution {
						t.Errorf("finish est %g != %g", ev.Finish.EstContribution, res.EstContribution)
					}
					if ev.Finish.DurationNs != int64(res.Stats.TotalTime) {
						t.Errorf("finish duration %d != TotalTime %d", ev.Finish.DurationNs, res.Stats.TotalTime)
					}
				case journal.TypePlanSummary:
					plans++
					if ev.Plan.Built != res.Stats.PlansBuilt || ev.Plan.Hits != res.Stats.PlanCacheHits {
						t.Errorf("plan.summary %+v, stats built/hits %d/%d", *ev.Plan, res.Stats.PlansBuilt, res.Stats.PlanCacheHits)
					}
				case journal.TypeSelectIter:
					if ev.Iter.I != len(seeds) {
						t.Errorf("iteration %d out of order (have %d seeds)", ev.Iter.I, len(seeds))
					}
					seeds = append(seeds, ev.Iter.Seed)
					covered += ev.Iter.Gain
					if ev.Iter.Covered != covered {
						t.Errorf("iter %d cumulative covered %d, prefix sum %d", ev.Iter.I, ev.Iter.Covered, covered)
					}
					if ev.Iter.Coverage < lastCoverage {
						t.Errorf("coverage decreased at iter %d", ev.Iter.I)
					}
					lastCoverage = ev.Iter.Coverage
				}
			}
			if start != 1 || finish != 1 {
				t.Fatalf("start/finish events = %d/%d", start, finish)
			}
			if want := min(res.Stats.PlansBuilt, 1); int64(plans) != want {
				t.Errorf("plan.summary events = %d with %d plans built", plans, res.Stats.PlansBuilt)
			}

			// The reconstruction: seeds in order, and total coverage.
			wantSeeds := make([]string, len(res.Seeds))
			for i, s := range res.Seeds {
				wantSeeds[i] = s.String()
			}
			if !reflect.DeepEqual(seeds, wantSeeds) {
				t.Errorf("journal seeds %v != result %v", seeds, wantSeeds)
			}
			if covered != res.Stats.CoveredRR {
				t.Errorf("journal coverage %d != result %d", covered, res.Stats.CoveredRR)
			}
			if res.Stats.NumRR > 0 && lastCoverage != float64(res.Stats.CoveredRR)/float64(res.Stats.NumRR) {
				t.Errorf("final coverage fraction %g", lastCoverage)
			}

			// One solve's time, the whole call's.
			sp := root.Find(e.requested)
			if sp == nil {
				t.Fatalf("no %s span", e.requested)
			}
			if e.fallback && sp.Find("MagicCM") == nil {
				t.Error("fallback span does not nest under the requested algorithm's")
			}
			if phases := phaseTime(sp); res.Stats.TotalTime < phases {
				t.Errorf("TotalTime %v < the %v of phases timed under %s", res.Stats.TotalTime, phases, e.requested)
			}
			if h := reg.Histogram(obs.CMSolveNs).Snapshot(); h.Count != 1 || h.Sum != int64(res.Stats.TotalTime) {
				t.Errorf("cm.solve_ns count %d sum %d, want 1 and TotalTime %d", h.Count, h.Sum, res.Stats.TotalTime)
			}
		})
	}
}

// TestJournalDoesNotPerturbResults is the one determinism test of the
// observability contract (the name predates the other sinks joining it):
// at every entry point, a fixed seed yields a byte-identical result with
// no sink, with each of the four sinks alone, and with all four together.
// The legs that carry a profile also check that the solve's close
// finalized it.
func TestJournalDoesNotPerturbResults(t *testing.T) {
	legs := []struct {
		name   string
		attach func(o *cm.Options)
	}{
		{"registry", func(o *cm.Options) { o.Obs = obs.NewRegistry() }},
		{"trace", func(o *cm.Options) { o.Trace = obs.StartSpan("test") }},
		{"journal", func(o *cm.Options) { o.Journal = journal.New("", journal.Options{}) }},
		{"profile", func(o *cm.Options) { o.Profile = prof.New() }},
		{"all", func(o *cm.Options) {
			o.Obs, o.Trace = obs.NewRegistry(), obs.StartSpan("test")
			o.Journal, o.Profile = journal.New("", journal.Options{}), prof.New()
		}},
	}
	for _, e := range entries() {
		t.Run(e.name, func(t *testing.T) {
			in := e.in(t)
			opts := func() cm.Options {
				return cm.Options{
					Theta:       im.ThetaSpec{Explicit: 200},
					Rand:        rand.New(rand.NewPCG(3, 5)),
					Parallelism: 2,
				}
			}
			plain, err := e.solve(in, opts())
			if err != nil {
				t.Fatal(err)
			}
			for _, leg := range legs {
				t.Run(leg.name, func(t *testing.T) {
					o := opts()
					leg.attach(&o)
					res, err := e.solve(in, o)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := resultFingerprint(res), resultFingerprint(plain); got != want {
						t.Errorf("observing perturbed the solve:\n  observed   %s\n  unobserved %s", got, want)
					}
					if !reflect.DeepEqual(res.ExactGains, plain.ExactGains) {
						t.Errorf("exact gains differ: %v vs %v", res.ExactGains, plain.ExactGains)
					}
					if o.Profile != nil {
						checkProfile(t, res, o.Profile.Report(), e.replay)
					}
				})
			}
		})
	}
}

// checkProfile asserts that rep is the finalized profile of the solve that
// returned res. A replay's cache answered it without evaluating anything.
func checkProfile(t *testing.T, res *cm.Result, rep *prof.RuntimeProfile, replay bool) {
	t.Helper()
	if rep.Algorithm != res.Algorithm || len(rep.Phases) == 0 {
		t.Errorf("profile not finalized: algorithm %q, %d phases", rep.Algorithm, len(rep.Phases))
	}
	if !replay && (rep.EngineRuns == 0 || rep.Derived == 0) {
		t.Errorf("profile recorded no evaluation: runs=%d derived=%d", rep.EngineRuns, rep.Derived)
	}
	// Every RR set generated by a walk or a propagation is attributed;
	// DNFCM's world samples and a replay's cached sets are not.
	if !replay && res.Algorithm != "DNFCM" && res.Stats.NumRR > 0 &&
		(rep.RR == nil || rep.RR.Walks != int64(res.Stats.NumRR)) {
		t.Errorf("profile RR walks = %+v, want %d", rep.RR, res.Stats.NumRR)
	}
}

// TestJournalPhaseEvents checks the full event taxonomy on the two
// full-graph algorithms: one graph.build, at least one engine.round, RR
// batch totals covering every set, and one select.iter per seed.
func TestJournalPhaseEvents(t *testing.T) {
	for _, al := range algos {
		if al.name != "NaiveCM" && al.name != "MagicGCM" {
			continue
		}
		t.Run(al.name, func(t *testing.T) {
			j := journal.New("phase", journal.Options{})
			res, err := al.run(journalInstance(t, 2), cm.Options{
				Theta:       im.ThetaSpec{Explicit: 500},
				Rand:        rand.New(rand.NewPCG(1, 1)),
				Parallelism: 2,
				Journal:     j,
			})
			if err != nil {
				t.Fatal(err)
			}
			builds, rounds, iters := 0, 0, 0
			workerTotal := map[int]int{}
			for _, ev := range j.Snapshot() {
				switch ev.Type {
				case journal.TypeGraphBuild:
					builds++
					if ev.Build.Nodes <= 0 || ev.Build.Edges <= 0 {
						t.Errorf("empty build event %+v", ev.Build)
					}
				case journal.TypeEngineRound:
					rounds++
					if ev.Round.Delta <= 0 {
						t.Errorf("round with no delta %+v", ev.Round)
					}
				case journal.TypeRRBatch:
					workerTotal[ev.RR.Worker] = ev.RR.TotalSets
				case journal.TypeSelectIter:
					iters++
				}
			}
			if builds != 1 {
				t.Errorf("graph.build events = %d, want 1", builds)
			}
			if rounds == 0 {
				t.Error("no engine.round events")
			}
			total := 0
			for _, n := range workerTotal {
				total += n
			}
			if total != res.Stats.NumRR {
				t.Errorf("rr.batch totals %d != NumRR %d", total, res.Stats.NumRR)
			}
			if iters != len(res.Seeds) {
				t.Errorf("select.iter events = %d, seeds = %d", iters, len(res.Seeds))
			}
		})
	}
}

// TestJournalAdaptiveIMMRounds checks that adaptive solves journal their
// phase-1 convergence: imm.round events with strictly increasing θ, and
// per-worker rr.batch running totals that cover every IMM batch.
func TestJournalAdaptiveIMMRounds(t *testing.T) {
	j := journal.New("imm", journal.Options{})
	res, err := cm.NaiveCM(journalInstance(t, 2), cm.Options{
		Adaptive:    true,
		Theta:       im.ThetaSpec{Epsilon: 0.3, MaxAuto: 3000},
		Rand:        rand.New(rand.NewPCG(2, 4)),
		Parallelism: 2,
		Journal:     j,
	})
	if err != nil {
		t.Fatal(err)
	}
	lastTheta, rounds := 0, 0
	workerTotal := map[int]int{}
	for _, ev := range j.Snapshot() {
		if ev.Type == journal.TypeRRBatch {
			workerTotal[ev.RR.Worker] = ev.RR.TotalSets
		}
		if ev.Type != journal.TypeIMMRound {
			continue
		}
		rounds++
		if ev.IMM.Round != rounds {
			t.Errorf("imm round ordinal %d, want %d", ev.IMM.Round, rounds)
		}
		if ev.IMM.Theta < lastTheta {
			t.Errorf("imm θ decreased: %d -> %d", lastTheta, ev.IMM.Theta)
		}
		lastTheta = ev.IMM.Theta
		if ev.IMM.X <= 0 {
			t.Errorf("imm threshold %g", ev.IMM.X)
		}
	}
	if rounds == 0 {
		t.Fatal("no imm.round events from an adaptive solve")
	}
	total := 0
	for _, n := range workerTotal {
		total += n
	}
	if total != res.Stats.NumRR {
		t.Errorf("rr.batch totals %d != NumRR %d", total, res.Stats.NumRR)
	}
}

// TestSnapshotDuringSolveRace hammers registry snapshots, Prometheus
// exposition, and journal subscriptions while a parallel journaled solve
// runs — the -race exercise for the single-pass snapshot API and the
// journal's locking. Invariants: histogram counts match their bucket
// sums, and journal sequence numbers stay contiguous.
func TestSnapshotDuringSolveRace(t *testing.T) {
	reg := obs.NewRegistry()
	j := journal.New("race", journal.Options{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s := reg.Snapshot()
				for name, h := range s.Histograms {
					var bsum int64
					for _, n := range h.Buckets {
						bsum += n
					}
					if h.Count != bsum {
						t.Errorf("%s: count %d != bucket sum %d", name, h.Count, bsum)
						return
					}
				}
				var sink bytes.Buffer
				if err := reg.WritePrometheus(&sink); err != nil {
					t.Error(err)
					return
				}
				replay, ch, cancel := j.Subscribe(4)
				for i := 1; i < len(replay); i++ {
					if replay[i].Seq != replay[i-1].Seq+1 {
						t.Errorf("journal replay gap at %d", i)
						cancel()
						return
					}
				}
				cancel()
				for range ch {
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		res, err := cm.MagicSampledCM(journalInstance(t, 2), cm.Options{
			Theta:       im.ThetaSpec{Explicit: 400},
			Rand:        rand.New(rand.NewPCG(uint64(i), 11)),
			Parallelism: 4,
			Obs:         reg,
			Journal:     j,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Seeds) == 0 {
			t.Fatal("no seeds")
		}
	}
	close(done)
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}
