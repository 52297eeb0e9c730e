package cm

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/im"
	"contribmax/internal/magic"
	"contribmax/internal/obs"
	"contribmax/internal/obs/journal"
	"contribmax/internal/planner"
	"contribmax/internal/prof"
	"contribmax/internal/wdgraph"
)

// MagicCM is NaiveCM with the on-the-fly subgraph construction of Section
// IV-B1 (Algorithm 3): no full WD graph is ever materialized. For each
// sampled target tuple t, the Magic-Sets-transformed program (P^m_t, w^m_t)
// is evaluated over D, yielding (Proposition 4.4) exactly the subgraph of
// the WD graph backward-reachable from t; the RR set is then sampled from
// that subgraph and the subgraph is discarded.
func MagicCM(in Input, opts Options) (*Result, error) {
	res, err := solveVia(in, opts, "MagicCM", func(in Input, opts Options) (*Result, error) {
		return magicVariant(in, opts, "MagicCM", false)
	})
	return observeSolve(opts, res, err)
}

// MagicSampledCM is the paper's Magic^S CM (written Magic³CM in places):
// MagicCM with the RR sampling folded into the subgraph construction
// (Section IV-B2). Every origin-rule instantiation is drawn to fire with
// probability w(r) *during* evaluation — one draw per origin instantiation,
// shared by all of its Magic-Sets modified rules — so only the fired part
// of the subgraph is ever materialized, and the subsequent RR extraction is
// a deterministic reverse reachability.
func MagicSampledCM(in Input, opts Options) (*Result, error) {
	res, err := solveVia(in, opts, "MagicSCM", func(in Input, opts Options) (*Result, error) {
		return magicVariant(in, opts, "MagicSCM", true)
	})
	return observeSolve(opts, res, err)
}

func magicVariant(in Input, opts Options, name string, sampled bool) (*Result, error) {
	sp := opts.Trace.StartChild(name)
	defer sp.End()
	prep := sp.StartChild("prepare")
	inst, err := prepare(in, opts)
	prep.End()
	if err != nil {
		return nil, err
	}
	ctx := opts.ctx()
	rng := opts.rng()
	start := time.Now()
	res := &Result{Algorithm: name, pl: opts.solvePlanner()}
	res.Stats.RulesTotal, res.Stats.RulesPruned = inst.rulesTotal, inst.rulesPruned
	journalSolveStart(opts, inst, name)
	opts.Profile.EnsureTargets(len(inst.targets))

	// The transformed program for a target depends only on the target, so
	// it is computed once per distinct target and reused across RR sets
	// (the graph, of course, is rebuilt — and re-sampled — per RR set).
	// The cache is lock-guarded for the parallel path.
	var trMu sync.Mutex
	transforms := make([]*magic.Transformed, len(inst.targets))
	transformFor := func(ti int) (*magic.Transformed, error) {
		trMu.Lock()
		defer trMu.Unlock()
		if transforms[ti] == nil {
			tr, err := magic.TransformWith(inst.prog, []ast.Atom{inst.atomOf(inst.targets[ti])}, opts.SIPS)
			if err != nil {
				return nil, err
			}
			transforms[ti] = tr
		}
		return transforms[ti], nil
	}

	// oneRR builds the subgraph for target ti, draws the RR set with rng r
	// (appending its members to arena), and records build stats into st. sc
	// carries the caller's persistent walker and key buffer, so in steady
	// state the only allocations are the subgraph build itself.
	oneRR := func(ti int, r *rand.Rand, st *Stats, sc *rrScratch, arena []im.CandidateID) ([]im.CandidateID, error) {
		var t0 time.Time
		if opts.Profile != nil {
			t0 = time.Now()
		}
		tr, err := transformFor(ti)
		if err != nil {
			return nil, err
		}
		// Engine parallelism stays off for per-tuple subgraphs: the RR
		// phase already runs one worker per Parallelism slot, and the
		// subgraphs are small — nesting worker pools would oversubscribe.
		g, err := buildMagicGraph(in, tr, r, sampled, ctx, opts.Obs, nil, 0, res.pl, opts.Profile)
		if err != nil {
			return nil, err
		}
		recordBuild(st, g)
		// PeakResidentSize for the per-tuple variants is the largest single
		// subgraph: each one is discarded after use (Section V-A).
		out := collectRR(g, inst, inst.targets[ti], r, sampled, sc, arena)
		if opts.Profile != nil {
			// Per-target attribution covers the whole per-RR pipeline —
			// subgraph build plus extraction — since both are target work
			// for the per-tuple variants. RecordWalk is atomic, so the
			// parallel RR workers share the counters race-free.
			opts.Profile.RecordWalk(ti, len(out)-len(arena), int64(time.Since(t0)))
		}
		return out, nil
	}

	rrSpan := sp.StartChild("rrgen")
	if opts.Parallelism >= 1 && !opts.Adaptive {
		err = parallelRRPhase(ctx, inst, opts, res, rng, oneRR)
	} else {
		sc := newRRScratch()
		var members []im.CandidateID
		var genErr error
		gen := func() []im.CandidateID {
			members = members[:0]
			if genErr != nil {
				return members
			}
			out, err := oneRR(drawTarget(rng, len(inst.targets)), rng, &res.Stats, sc, members)
			if err != nil {
				genErr = err
				return members
			}
			members = out
			return out
		}
		err = runRRPhase(ctx, inst, opts, res, gen)
		if genErr != nil {
			err = genErr
		}
		observeArena(opts.Obs, res.rrColl, sc.walker.Grows())
	}
	rrSpan.SetAttr("rr", int64(res.Stats.NumRR))
	rrSpan.SetAttr("builds", int64(res.Stats.GraphBuilds))
	rrSpan.End()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	finishSelection(inst, opts, res, sp)
	res.Stats.TotalTime = time.Since(start)
	return res, nil
}

// parallelRRPhase distributes θ independent RR constructions over
// Options.Parallelism workers. Determinism: the target index and a
// dedicated PCG seed are pre-drawn for every RR slot from the master rng,
// so the resulting RR multiset does not depend on scheduling or worker
// count; per-worker stats are merged afterwards, and the collection is
// assembled from the per-worker member arenas in slot order. Workers
// re-check ctx before every slot and the phase returns ctx's error on
// cancellation.
func parallelRRPhase(ctx context.Context, inst *instance, opts Options, res *Result, rng *rand.Rand,
	oneRR func(ti int, r *rand.Rand, st *Stats, sc *rrScratch, arena []im.CandidateID) ([]im.CandidateID, error)) error {

	rrStart := time.Now()
	theta := inst.theta(opts)
	type slot struct {
		ti    int
		seedA uint64
		seedB uint64
	}
	slots := make([]slot, theta)
	for i := range slots {
		slots[i] = slot{
			ti:    drawTarget(rng, len(inst.targets)),
			seedA: rng.Uint64(),
			seedB: rng.Uint64(),
		}
	}
	segs := make([]rrSeg, theta)
	ro := newRRObs(opts.Obs)
	workers := opts.Parallelism
	if workers < 1 {
		workers = 1
	}
	arenas := make([][]im.CandidateID, workers)
	grows := make([]int64, workers)
	errs := make([]error, workers)
	stats := make([]Stats, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := newRRScratch()
			rec := journal.NewBatchRecorder(opts.Journal, w)
			defer rec.Flush()
			var arena []im.CandidateID
			defer func() {
				arenas[w] = arena
				grows[w] = sc.walker.Grows()
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= theta || ctx.Err() != nil {
					return
				}
				r := rand.New(rand.NewPCG(slots[i].seedA, slots[i].seedB))
				lo := len(arena)
				out, err := oneRR(slots[i].ti, r, &stats[w], sc, arena)
				if err != nil {
					errs[w] = err
					return
				}
				arena = out
				segs[i] = rrSeg{worker: int32(w), lo: int64(lo), hi: int64(len(arena))}
				ro.observe(len(arena) - lo)
				rec.Observe(len(arena) - lo)
			}
		}(w)
	}
	wg.Wait()
	for w := range stats {
		mergeStats(&res.Stats, &stats[w])
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		res.Stats.RRGenTime += time.Since(rrStart)
		return err
	}
	coll := assembleCollection(len(inst.candidates), segs, arenas)
	res.rrColl = coll
	res.Stats.NumRR = theta
	res.Stats.RRGenTime += time.Since(rrStart)
	var totalGrows int64
	for _, n := range grows {
		totalGrows += n
	}
	observeArena(opts.Obs, coll, totalGrows)
	return nil
}

// mergeStats folds a worker's build accounting into dst.
func mergeStats(dst, src *Stats) {
	dst.GraphBuilds += src.GraphBuilds
	dst.TotalNodes += src.TotalNodes
	dst.TotalEdges += src.TotalEdges
	if src.MaxNodes > dst.MaxNodes {
		dst.MaxNodes = src.MaxNodes
	}
	if src.MaxEdges > dst.MaxEdges {
		dst.MaxEdges = src.MaxEdges
	}
	if src.PeakResidentSize > dst.PeakResidentSize {
		dst.PeakResidentSize = src.PeakResidentSize
	}
}

// buildMagicGraph evaluates the transformed program over a scratch database
// (sharing the original edb relations) and returns the projected WD
// subgraph. With sampled=true a fresh HashGate (seeded from rng) vetoes
// instantiations, so the returned graph is one random execution. ctx
// cancels the evaluation
// between fixpoint rounds; reg, when non-nil, receives per-subgraph
// wdgraph.* metrics (the gate construction needs the engine, so this cannot
// delegate to wdgraph.BuildWith). jr, when non-nil, receives graph.build
// and per-round engine.round events — only the grouped variant's one
// full union-graph build passes it (per-RR subgraph builds number in the
// thousands and are summarized by rr.batch events instead). pl is the
// solve's shared plan cache: the transformed program is recompiled here for
// every RR set, and the cache turns each recompilation after the first into
// pure plan lookups per adorned rule family. pf, when non-nil, receives
// per-rule fixpoint accounting (keyed by source rule text, so the thousands
// of per-target engines of one solve merge into one adorned-rule-family
// ledger).
func buildMagicGraph(in Input, tr *magic.Transformed, rng *rand.Rand, sampled bool,
	ctx context.Context, reg *obs.Registry, jr *journal.Journal, par int, pl *planner.Planner, pf *prof.Profile) (*wdgraph.Graph, error) {
	start := time.Now()
	eng, err := engine.NewPlanned(tr.Program, in.DB.Scratch(in.Program.EDBs()), pl)
	if err != nil {
		return nil, err
	}
	b := wdgraph.NewBuilder(tr.Projection())
	var gate engine.FireGate
	if sampled {
		gate = magic.NewHashGate(tr, eng, rng.Uint64())
	}
	if _, err := eng.Run(engine.Options{Listener: b.Listener(), Gate: gate, Context: ctx, Obs: reg, Parallelism: par, Journal: jr, Prof: pf}); err != nil {
		return nil, err
	}
	g := b.Graph()
	if reg != nil {
		reg.Counter(obs.GraphBuilds).Inc()
		reg.Counter(obs.GraphNodes).Add(int64(g.NumNodes()))
		reg.Counter(obs.GraphEdges).Add(int64(g.NumEdges()))
		reg.Histogram(obs.GraphBuildNs).ObserveSince(start)
	}
	jr.GraphBuild(g.NumNodes(), g.NumEdges(), time.Since(start))
	return g, nil
}

// rrScratch is the per-worker reusable state of the per-tuple Magic
// variants: one persistent walker re-targeted at each RR subgraph (marks
// reused across graphs via epochs) and a key buffer for alloc-free
// candidate lookups. Not safe for concurrent use.
type rrScratch struct {
	walker *wdgraph.Walker
	keyBuf []byte
	// world is DNFCM's per-worker possible-world buffer (unused by the
	// Magic variants).
	world []bool
}

func newRRScratch() *rrScratch { return &rrScratch{walker: wdgraph.NewWalker(nil)} }

// factKey builds the candOf lookup key (pred, NUL, big-endian tuple bytes —
// the same encoding as FactHandle.key) in the reusable buffer. The returned
// slice aliases the scratch and is valid until the next call; looking it up
// as inst.candOf[string(key)] compiles without materializing the string.
func (sc *rrScratch) factKey(pred string, t db.Tuple) []byte {
	buf := append(sc.keyBuf[:0], pred...)
	buf = append(buf, 0)
	for _, s := range t {
		buf = append(buf, byte(s>>24), byte(s>>16), byte(s>>8), byte(s))
	}
	sc.keyBuf = buf
	return buf
}

// collectRR extracts the RR set of target from g, appending the T1
// candidates from which target is reachable to members. For the unsampled
// variant the reverse walk draws each edge with its weight; for the sampled
// variant the graph itself is already one random execution, so the walk is
// deterministic.
func collectRR(g *wdgraph.Graph, inst *instance, target FactHandle, rng *rand.Rand, sampledGraph bool, sc *rrScratch, members []im.CandidateID) []im.CandidateID {
	root, ok := g.FactID(target.Pred, target.Tuple)
	if !ok {
		// Target not derived: empty RR set. This cannot happen for the
		// unsampled variant when the target is genuinely in P(D); for the
		// sampled variant it corresponds to an execution in which the
		// target was not derived.
		return members
	}
	sc.walker.Reset(g)
	sc.walker.ReverseReachable(root, rng, sampledGraph, func(v wdgraph.NodeID) {
		n := g.Node(v)
		if n.Kind != wdgraph.FactNode || !n.EDB {
			return
		}
		key := sc.factKey(n.Pred, n.Tuple)
		if c, ok := inst.candOf[string(key)]; ok {
			members = append(members, c)
		}
	})
	return members
}
