package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"contribmax/internal/analysis"
	"contribmax/internal/ast"
	"contribmax/internal/cm"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/im"
	"contribmax/internal/magic"
	"contribmax/internal/planner"
	"contribmax/internal/wdgraph"
)

// The traced run replays a solve through the exported functions cm calls
// internally, timing each call as a span, and reconciles the replay's
// counts with the cm.Stats of the real solve. The replay mirrors the
// Parallelism >= 1 slot design of MagicSampledCM and NaiveCM: every RR slot
// pre-draws its target and a PCG seed from the solve rng. If cm changes its
// internal call sequence, reconciliation reports the difference instead of
// a silently wrong split.

// solveRand is the rng a solve with rng seed s uses, shared by the real
// solve and its replay.
func solveRand(s uint64) *rand.Rand { return rand.New(rand.NewPCG(s, s^0x5EED)) }

// shape is what the replay reconciles with the real solve.
type shape struct {
	Builds     int
	Nodes      int64
	Edges      int64
	RRSets     int
	PlansBuilt int64
	PlanHits   int64
	Answer     string
}

// shapeOf reads the shape of a real solve from its result.
func shapeOf(res *cm.Result) shape {
	return shape{
		Builds:     res.Stats.GraphBuilds,
		Nodes:      res.Stats.TotalNodes,
		Edges:      res.Stats.TotalEdges,
		RRSets:     res.Stats.NumRR,
		PlansBuilt: res.Stats.PlansBuilt,
		PlanHits:   res.Stats.PlanCacheHits,
		Answer:     answerKey(seedStrings(res), res.SeedGains),
	}
}

// answerKey renders seeds and gains for comparison.
func answerKey(seeds []string, gains []int) string {
	return fmt.Sprintf("%s|%v", strings.Join(seeds, ";"), gains)
}

// reconcile lists every count on which the replay differs from the solve;
// empty means the per-layer split accounts for the real solve's work.
func reconcile(replay, solve shape) []string {
	var diffs []string
	add := func(name string, r, s any) {
		if r != s {
			diffs = append(diffs, fmt.Sprintf("%s: replay %v, solve %v", name, r, s))
		}
	}
	add("graph builds", replay.Builds, solve.Builds)
	add("nodes", replay.Nodes, solve.Nodes)
	add("edges", replay.Edges, solve.Edges)
	add("rr sets", replay.RRSets, solve.RRSets)
	add("plans built", replay.PlansBuilt, solve.PlansBuilt)
	add("plan cache hits", replay.PlanHits, solve.PlanHits)
	add("seeds", replay.Answer, solve.Answer)
	return diffs
}

// layerWork counts the work of one replayed solve, per layer.
type layerWork struct {
	transforms     int
	clones         int
	compiles       int
	rounds         int64
	instantiations int64
	suppressed     int64
	builds         int
	nodes          int64
	edges          int64
	graphSize      int64
	maxGraphBytes  int64
	walkNodes      int64
	rrSets         int
	rrMembers      int64
	arenaBytes     int64
	plansBuilt     int64
	planHits       int64
	// fixpointBare, fixpointP1 and fixpointP2 time the same fixpoint
	// without a listener: at the solve's own parallelism, and (NaiveCM
	// only) at Parallelism 1 and 2.
	fixpointBare time.Duration
	fixpointP1   time.Duration
	fixpointP2   time.Duration
	// extra is the replay time spent on those comparison runs, which the
	// real solve does not do.
	extra time.Duration
}

// replayInput is one solve to replay.
type replayInput struct {
	prog    *ast.Program
	db      *db.Database
	targets []ast.Atom
	k       int
	theta   int
	par     int
	rngSeed uint64
}

// candidateSet mirrors cm's default T1: every edb fact, relations in
// creation order, tuples in insertion order.
type candidateSet struct {
	ids   map[string]int // pred NUL tuple key -> candidate id
	pred  []string
	tuple []db.Tuple
	names []string // rendered facts, by id
}

func candidates(prog *ast.Program, d *db.Database) *candidateSet {
	edb := map[string]bool{}
	for _, p := range prog.EDBs() {
		edb[p] = true
	}
	cs := &candidateSet{ids: map[string]int{}}
	for _, name := range d.RelationNames() {
		if !edb[name] {
			continue
		}
		rel, _ := d.Lookup(name)
		for i := 0; i < rel.Len(); i++ {
			t := rel.Tuple(db.TupleID(i))
			k := name + "\x00" + t.Key()
			if _, dup := cs.ids[k]; dup {
				continue
			}
			cs.ids[k] = len(cs.names)
			cs.pred = append(cs.pred, name)
			cs.tuple = append(cs.tuple, t)
			cs.names = append(cs.names, d.AtomOf(rel, db.TupleID(i)).String())
		}
	}
	return cs
}

// target is a resolved T2 fact.
type target struct {
	atom  ast.Atom
	tuple db.Tuple
}

func resolveTargets(d *db.Database, atoms []ast.Atom) ([]target, error) {
	seen := map[string]bool{}
	var out []target
	for _, a := range atoms {
		t, err := d.InternAtom(a)
		if err != nil {
			return nil, err
		}
		k := a.Predicate + "\x00" + t.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, target{atom: a, tuple: t})
	}
	return out, nil
}

// rrSlot is one pre-drawn RR construction.
type rrSlot struct {
	ti           int
	seedA, seedB uint64
}

func drawSlots(rng *rand.Rand, theta, nTargets int) []rrSlot {
	slots := make([]rrSlot, theta)
	for i := range slots {
		slots[i] = rrSlot{ti: rng.IntN(nTargets), seedA: rng.Uint64(), seedB: rng.Uint64()}
	}
	return slots
}

// analysisOptions mirrors the options cm derives for its analysis gate.
func analysisOptions(prog *ast.Program, d *db.Database, targets []ast.Atom) analysis.Options {
	edb := map[string]int{}
	for _, name := range d.RelationNames() {
		if rel, ok := d.Lookup(name); ok {
			edb[name] = rel.Arity()
		}
	}
	var roots []string
	seen := map[string]bool{}
	for _, a := range targets {
		if !seen[a.Predicate] {
			seen[a.Predicate] = true
			roots = append(roots, a.Predicate)
		}
	}
	return analysis.Options{EDB: edb, Roots: roots}
}

// replayMagicSampled replays MagicSampledCM: per RR slot a scratch clone,
// a planned compile of the target's Magic program, a hash gate, a gated
// fixpoint feeding a WD-graph builder, the CSR finalize and a deterministic
// reverse walk; then the RR collection and greedy selection. For each slot
// it also times the same gated fixpoint without a listener.
func replayMagicSampled(ri replayInput, tr *tracer, op int) (shape, layerWork, error) {
	var lw layerWork
	root := tr.begin(op, 0, "replay")
	defer root.end()
	a := tr.begin(op, root.id, "analysis.analyze")
	analysis.Analyze(ri.prog, analysisOptions(ri.prog, ri.db, ri.targets))
	a.end()
	cands := candidates(ri.prog, ri.db)
	targets, err := resolveTargets(ri.db, ri.targets)
	if err != nil {
		return shape{}, lw, err
	}
	rng := solveRand(ri.rngSeed)
	theta := im.ThetaSpec{Explicit: ri.theta}.Theta(len(cands.names), len(targets), ri.k)
	slots := drawSlots(rng, theta, len(targets))
	pl := planner.New(nil)
	bare := planner.New(nil)
	sips := cm.Options{}.SIPS
	transforms := make([]*magic.Transformed, len(targets))
	coll := im.NewRRCollection(len(cands.names))
	walker := wdgraph.NewWalker(nil)
	var members []im.CandidateID
	for _, s := range slots {
		slot := tr.begin(op, root.id, "rr.slot")
		if transforms[s.ti] == nil {
			r := tr.begin(op, slot.id, "magic.transform")
			transforms[s.ti], err = magic.TransformWith(ri.prog, []ast.Atom{targets[s.ti].atom}, sips)
			r.end()
			if err != nil {
				return shape{}, lw, err
			}
			lw.transforms++
		}
		mp := transforms[s.ti]
		rr := rand.New(rand.NewPCG(s.seedA, s.seedB))

		r := tr.begin(op, slot.id, "db.clone")
		scratch := scratchOf(ri.prog, ri.db)
		r.end()
		lw.clones++
		r = tr.begin(op, slot.id, "engine.compile")
		eng, err := engine.NewPlanned(mp.Program, scratch, pl)
		r.end()
		if err != nil {
			return shape{}, lw, err
		}
		lw.compiles++
		b := wdgraph.NewBuilder(mp.Projection())
		gateSeed := rr.Uint64()
		r = tr.begin(op, slot.id, "magic.gate")
		gate := magic.NewHashGate(mp, eng, gateSeed)
		r.end()
		r = tr.begin(op, slot.id, "engine.run_listener")
		st, err := eng.Run(engine.Options{Listener: b.Listener(), Gate: gate})
		r.end()
		if err != nil {
			return shape{}, lw, err
		}
		lw.rounds += int64(st.Rounds)
		lw.instantiations += st.Instantiations
		lw.suppressed += st.Suppressed
		r = tr.begin(op, slot.id, "wdgraph.finalize")
		g := b.Graph()
		r.end()
		lw.builds++
		lw.nodes += int64(g.NumNodes())
		lw.edges += int64(g.NumEdges())
		lw.graphSize += int64(g.Size())
		if mb := g.MemoryBytes(); mb > lw.maxGraphBytes {
			lw.maxGraphBytes = mb
		}

		members = members[:0]
		r = tr.begin(op, slot.id, "wdgraph.walk")
		if id, ok := g.FactID(targets[s.ti].atom.Predicate, targets[s.ti].tuple); ok {
			walker.Reset(g)
			walker.ReverseReachable(id, rr, true, func(v wdgraph.NodeID) {
				lw.walkNodes++
				n := g.Node(v)
				if n.Kind != wdgraph.FactNode || !n.EDB {
					return
				}
				if c, ok := cands.ids[n.Pred+"\x00"+n.Tuple.Key()]; ok {
					members = append(members, im.CandidateID(c))
				}
			})
		}
		r.end()
		r = tr.begin(op, slot.id, "im.add")
		coll.Add(members)
		r.end()
		slot.end()

		// The same gated fixpoint without the builder's listener, on its
		// own scratch and planner so the mirrored counts stay untouched.
		t0 := time.Now()
		eng2, err := engine.NewPlanned(mp.Program, scratchOf(ri.prog, ri.db), bare)
		if err != nil {
			return shape{}, lw, err
		}
		gate2 := magic.NewHashGate(mp, eng2, gateSeed)
		f := tr.begin(op, 0, "engine.fixpoint")
		if _, err := eng2.Run(engine.Options{Gate: gate2}); err != nil {
			return shape{}, lw, err
		}
		lw.fixpointBare += f.end()
		lw.extra += time.Since(t0)
	}
	return finishReplay(ri, coll, cands.names, pl, lw, tr, op, root.id)
}

// finishReplay runs the greedy selection and assembles the replay's shape.
func finishReplay(ri replayInput, coll *im.RRCollection, names []string, pl *planner.Planner, lw layerWork, tr *tracer, op, parent int) (shape, layerWork, error) {
	r := tr.begin(op, parent, "im.select")
	gr := im.Greedy(coll, ri.k)
	r.end()
	lw.rrSets = coll.Len()
	lw.rrMembers = coll.TotalMembers()
	lw.arenaBytes = coll.ArenaBytes()
	st := pl.Stats()
	lw.plansBuilt, lw.planHits = st.Built, st.Hits
	seeds := make([]string, len(gr.Seeds))
	for i, c := range gr.Seeds {
		seeds[i] = names[c]
	}
	sh := shape{
		Builds: lw.builds,
		Nodes:  lw.nodes,
		Edges:  lw.edges,
		RRSets: coll.Len(),
		Answer: answerKey(seeds, gr.Gains),
	}
	// cm reports plan counts only when the solve built a plan.
	if st.Built > 0 {
		sh.PlansBuilt, sh.PlanHits = st.Built, st.Hits
	}
	return sh, lw, nil
}

// replayNaive replays NaiveCM: one scratch clone, the edb preload, a
// planned compile, the full fixpoint feeding the builder at the solve's
// parallelism, the CSR finalize, then θ sampled reverse walks and the
// greedy selection. It also times the fixpoint without a listener at
// Parallelism 1 and 2.
func replayNaive(ri replayInput, tr *tracer, op int) (shape, layerWork, error) {
	var lw layerWork
	root := tr.begin(op, 0, "replay")
	defer root.end()
	a := tr.begin(op, root.id, "analysis.analyze")
	analysis.Analyze(ri.prog, analysisOptions(ri.prog, ri.db, ri.targets))
	a.end()
	cands := candidates(ri.prog, ri.db)
	targets, err := resolveTargets(ri.db, ri.targets)
	if err != nil {
		return shape{}, lw, err
	}
	rng := solveRand(ri.rngSeed)
	pl := planner.New(nil)

	r := tr.begin(op, root.id, "db.clone")
	scratch := scratchOf(ri.prog, ri.db)
	r.end()
	lw.clones++
	factHint := 0
	for _, p := range ri.prog.EDBs() {
		if rel, ok := scratch.Lookup(p); ok {
			factHint += rel.Len()
		}
	}
	b := wdgraph.NewBuilderSized(wdgraph.IdentityProjection(ri.prog), factHint, 0)
	r = tr.begin(op, root.id, "wdgraph.preload")
	b.PreloadEDB(ri.prog, scratch)
	r.end()
	r = tr.begin(op, root.id, "engine.compile")
	eng, err := engine.NewPlanned(ri.prog, scratch, pl)
	r.end()
	if err != nil {
		return shape{}, lw, err
	}
	lw.compiles++
	r = tr.begin(op, root.id, "engine.run_listener")
	st, err := eng.Run(engine.Options{Listener: b.Listener(), Parallelism: ri.par})
	r.end()
	if err != nil {
		return shape{}, lw, err
	}
	lw.rounds, lw.instantiations, lw.suppressed = int64(st.Rounds), st.Instantiations, st.Suppressed
	r = tr.begin(op, root.id, "wdgraph.finalize")
	g := b.Graph()
	r.end()
	lw.builds++
	lw.nodes, lw.edges = int64(g.NumNodes()), int64(g.NumEdges())
	lw.graphSize = int64(g.Size())
	lw.maxGraphBytes = g.MemoryBytes()

	candOfNode := make([]int32, g.NumNodes())
	for i := range candOfNode {
		candOfNode[i] = -1
	}
	for c := range cands.names {
		if id, ok := g.FactID(cands.pred[c], cands.tuple[c]); ok {
			candOfNode[id] = int32(c)
		}
	}
	targetIDs := make([]wdgraph.NodeID, len(targets))
	targetOK := make([]bool, len(targets))
	for i, t := range targets {
		targetIDs[i], targetOK[i] = g.FactID(t.atom.Predicate, t.tuple)
	}
	theta := im.ThetaSpec{Explicit: ri.theta}.Theta(len(cands.names), len(targets), ri.k)
	slots := drawSlots(rng, theta, len(targets))
	walker := wdgraph.NewWalker(g)
	coll := im.NewRRCollection(len(cands.names))
	var members []im.CandidateID
	r = tr.begin(op, root.id, "wdgraph.walk")
	for _, s := range slots {
		members = members[:0]
		if targetOK[s.ti] {
			rr := rand.New(rand.NewPCG(s.seedA, s.seedB))
			walker.ReverseReachable(targetIDs[s.ti], rr, false, func(v wdgraph.NodeID) {
				lw.walkNodes++
				if c := candOfNode[v]; c >= 0 {
					members = append(members, im.CandidateID(c))
				}
			})
		}
		coll.Add(members)
	}
	r.end()
	lw.extra, lw.fixpointP1, lw.fixpointP2 = bareFixpoints(ri, tr, op)
	lw.fixpointBare = lw.fixpointP2
	if ri.par < 2 {
		lw.fixpointBare = lw.fixpointP1
	}
	return finishReplay(ri, coll, cands.names, pl, lw, tr, op, root.id)
}

// bareFixpoints times the full fixpoint without a listener at
// Parallelism 1 and 2, each on its own scratch database and planner.
func bareFixpoints(ri replayInput, tr *tracer, op int) (extra, p1, p2 time.Duration) {
	t0 := time.Now()
	for _, par := range []int{1, 2} {
		eng, err := engine.NewPlanned(ri.prog, scratchOf(ri.prog, ri.db), planner.New(nil))
		if err != nil {
			continue
		}
		r := tr.begin(op, 0, fmt.Sprintf("engine.fixpoint_p%d", par))
		_, err = eng.Run(engine.Options{Parallelism: par})
		d := r.end()
		if err != nil {
			continue
		}
		if par == 1 {
			p1 = d
		} else {
			p2 = d
		}
	}
	return time.Since(t0), p1, p2
}
