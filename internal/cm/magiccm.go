package cm

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"time"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/im"
	"contribmax/internal/magic"
	"contribmax/internal/obs/instr"
	"contribmax/internal/obs/journal"
	"contribmax/internal/planner"
	"contribmax/internal/wdgraph"
)

// MagicCM is NaiveCM with the on-the-fly subgraph construction of Section
// IV-B1 (Algorithm 3): no full WD graph is ever materialized. For each
// sampled target tuple t, the Magic-Sets-transformed program (P^m_t, w^m_t)
// is evaluated over D, yielding (Proposition 4.4) exactly the subgraph of
// the WD graph backward-reachable from t; the RR set is then sampled from
// that subgraph. The subgraph is deterministic, so each batch of
// pre-seeded RR slots is grouped by target: each target's subgraph is
// built once, walked once per slot with that slot's own stream, and
// discarded before the worker takes the next target.
func MagicCM(in Input, opts Options) (*Result, error) {
	return run(in, opts, "MagicCM", cached(magicCM))
}

func magicCM(s *solve) error { return magicVariant(s, false) }

// MagicSampledCM is the paper's Magic^S CM (written Magic³CM in places):
// MagicCM with the RR sampling folded into the subgraph construction
// (Section IV-B2). Every origin-rule instantiation is drawn to fire with
// probability w(r) *during* evaluation — one draw per origin instantiation,
// shared by all of its Magic-Sets modified rules — so only the fired part
// of the subgraph is ever materialized, and the subsequent RR extraction is
// a deterministic reverse reachability.
//
// The distribution it samples is that of the sampled run, not the
// percolation reachability of Definition 3.4 that NaiveCM and MagicCM
// sample: a modified rule fires only when all of its body facts were
// derived in the same run. On a rule that joins a derived atom with
// another atom, Magic^S therefore credits a seed in the other atom only in
// runs where the derived atom was derived too, while percolation credits
// it whenever the rule's own edge is drawn. In testdata/agree/hier_star
// (0.6 hub(X) :- src(X). 0.7 leaf(X, Y) :- hub(X), port(Y).) the seed
// port(p1) reaches leaf(h, p1) with probability 0.7 under percolation and
// 0.6·0.7 = 0.42 under Magic^S. The two distributions agree when no rule
// in the targets' cones joins a derived atom with another atom; recursive
// rules such as transitive closure's tc(X, Z) :- tc(X, Y), e(Y, Z) do.
//
// The draw is a hash of (gate seed, origin rule, origin bindings)
// (magic.HashGate), so a sampled run is a sub-run of the unsampled one.
// Each batch of RR slots is drawn per target predicate: the group's first
// RR set by a gated evaluation; when that pays (see groundGroup), one
// recorded unsampled evaluation of the predicate's multi-seed Magic
// program (Remark 1's grouping, magic.Grounding), over which every other
// slot is drawn by Horn propagation from its own target's seed; and by
// gated evaluations otherwise. The grounding covers only the targets the
// batch drew of the predicate. Every RR set equals the gated evaluation's
// as a set.
func MagicSampledCM(in Input, opts Options) (*Result, error) {
	return run(in, opts, "MagicSCM", cached(magicSampledCM))
}

func magicSampledCM(s *solve) error { return magicVariant(s, true) }

func magicVariant(s *solve, sampled bool) error {
	start := time.Now()
	shapes, err := newMagicShapes(s.inst, s.opts.SIPS, s.res.pl)
	s.res.Stats.RRGenTime += time.Since(start)
	if err != nil {
		return fmt.Errorf("%s: %w", s.res.Algorithm, err)
	}
	m := &magicRR{
		in: s.inst.in, inst: s.inst, ctx: s.opts.ctx(), h: s.h.Quiet(), sampled: sampled,
		edbs:   s.inst.in.Program.EDBs(),
		shapes: shapes,
		route:  journal.RouteInfo{C: groundCapFactor},
	}
	if err := s.generateRR(s.opts.rng(), nil, m.groupedPhase); err != nil {
		return fmt.Errorf("%s: %w", s.res.Algorithm, err)
	}
	if sampled {
		s.res.Stats.Groundings = m.route.Grounded + m.route.CapTripped
		s.res.Stats.GroundAborts = m.route.CapTripped
		s.h.Journal().RRRoute(m.route)
	}
	return nil
}

// magicShape is one target predicate's Magic program under the solve's
// SIPS, transformed and compiled once per solve. The shape reads its
// queries from the predicate's query relation, so every engine run for
// targets of the predicate binds this one compilation over a fresh
// scratch database holding its queries: a gated run its target's, and a
// Magic^S grounding those of all the targets it covers.
type magicShape struct {
	tr       *magic.Transformed // the program of the predicate's first target
	compiled *engine.Compiled   // tr.Shape()
}

// bind loads the queries pred(tuples[i]) into scratch, a scratch copy of
// the input database, and binds the shape over it.
func (sh *magicShape) bind(scratch *db.Database, pred string, tuples ...db.Tuple) (*engine.Engine, error) {
	if err := sh.tr.LoadQueries(scratch, pred, tuples...); err != nil {
		return nil, err
	}
	return sh.compiled.Bind(scratch)
}

// magicShapes is a solve's shapes, byPred in order of each predicate's
// first target, and per target the index of its shape. Both are
// read-only once built.
type magicShapes struct {
	byPred []*magicShape
	shape  []int
}

// newMagicShapes transforms and compiles one shape per distinct target
// predicate, in target order, planning through pl. Compilations and plan
// requests thus depend on the targets alone, not on the RR slots,
// Parallelism or scheduling.
func newMagicShapes(inst *instance, sips magic.SIPS, pl *planner.Planner) (*magicShapes, error) {
	out := &magicShapes{shape: make([]int, len(inst.targets))}
	byPred := map[string]int{}
	for ti, target := range inst.targets {
		k, ok := byPred[target.Pred]
		if !ok {
			tr, err := magic.TransformWith(inst.prog, []ast.Atom{inst.atomOf(target)}, sips)
			if err != nil {
				return nil, err
			}
			c, err := engine.Compile(tr.Shape(), inst.in.DB.Symbols(), pl)
			if err != nil {
				return nil, err
			}
			k = len(out.byPred)
			byPred[target.Pred] = k
			out.byPred = append(out.byPred, &magicShape{tr: tr, compiled: c})
		}
		out.shape[ti] = k
	}
	return out, nil
}

// magicRR is the RR-generation state of one MagicCM / Magic^S CM solve.
type magicRR struct {
	in   Input
	inst *instance
	ctx  context.Context
	// h records the per-target builds and groundings without journal
	// events (instr.Instr.Quiet).
	h       *instr.Instr
	sampled bool
	// edbs names the input program's edb relations, which every scratch
	// database attaches.
	edbs []string
	// shapes holds the compiled shapes.
	shapes *magicShapes
	// route sums Magic^S's routes over every batch of the solve: the one
	// rr.route event.
	route journal.RouteInfo
}

// groupRoute is one group's route decision (see groundGroup) and its
// first gated run's attempted instantiations, written by the group's
// owner.
type groupRoute struct {
	route groundRoute
	a1    int64
}

// shapeOf returns target ti's shape.
func (m *magicRR) shapeOf(ti int) *magicShape { return m.shapes.byPred[m.shapes.shape[ti]] }

// targetGraph evaluates target ti's Magic program — its shape bound over
// a scratch database holding ti's query — and returns the projected
// subgraph and the run's engine stats; sampled gates the run by gateSeed
// (one Magic^S sampled run). Per-tuple subgraphs build without the engine
// pipeline: the RR phase already runs one worker per Parallelism slot,
// and the subgraphs are small — a second goroutine per build would
// oversubscribe.
func (m *magicRR) targetGraph(ti int, gateSeed uint64, sampled bool) (*wdgraph.Graph, engine.Stats, error) {
	sh, target := m.shapeOf(ti), m.inst.targets[ti]
	eng, err := sh.bind(m.in.DB.Scratch(m.edbs), target.Pred, target.Tuple)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	return buildMagicGraph(sh.tr, eng, gateSeed, sampled, m.ctx, m.h, 0)
}

// gatedRR evaluates target ti's Magic program gated by gateSeed (one
// Magic^S sampled run), records the subgraph in st and appends the RR set
// to arena. It also returns the run's attempted instantiations (fired plus
// gate-suppressed).
func (m *magicRR) gatedRR(ti int, gateSeed uint64, st *Stats, sc *rrScratch, arena []im.CandidateID) ([]im.CandidateID, int64, error) {
	g, est, err := m.targetGraph(ti, gateSeed, true)
	if err != nil {
		return arena, 0, err
	}
	recordBuild(st, g)
	return collectRR(g, m.inst, m.inst.targets[ti], nil, true, sc, arena), est.Instantiations + est.Suppressed, nil
}

// groundCapFactor is c in the grounding route (see groundGroup): a
// group's grounding may fire at most c·(n−1)·A₁ instantiations, n the
// group's slot count and A₁ the instantiations its first gated run
// attempted. Per instantiation, a grounding and a gated run cost about the
// same: 1.0–1.3 µs per instantiation for a predicate's grounding (compile,
// unsampled fixpoint, recording listener, index build) against 1.0–1.1 µs
// per attempted instantiation for a gated run (compile, gated fixpoint,
// WD-graph builder), while a propagation from one target's seed costs
// about 0.06 µs per instantiation of that target's own run (internal/magic
// BenchmarkGroundingPerPredicate, BenchmarkGatedRun and
// BenchmarkPropagatePerPredicate on AMIE-8, 2-vCPU linux/amd64 host). So
// with c = 1 a grounding that completes costs at most about as much as
// the n−1 gated runs it replaces, and one that aborts wastes at most that
// much. c also sets the least number of repeat slots (see routeTooFew) a
// group needs before a grounding is tried.
const groundCapFactor = 1

// groundRoute is how a group's slots after the first were drawn.
type groundRoute uint8

const (
	// routeTooFew: c·(n−d) <= 1, d the group's distinct targets: the group
	// has at most one repeat slot (a slot whose target already has an
	// earlier one in the group). The grounding holds each target's
	// unsampled run, which contains every instantiation the target's
	// gated runs attempt, so unless the targets' runs overlap it costs at
	// least one gated run per target while replacing n−1 of the group's
	// n: it can pay only with two or more repeat slots. With one target
	// this is c·(n−1) <= 1, where the cap would be at most A₁ and is
	// certain to trip. The slots are evaluated gated.
	routeTooFew groundRoute = iota
	// routeGrounded: one grounding, one propagation per slot.
	routeGrounded
	// routeCapTripped: the grounding exceeded its cap and was dropped; the
	// slots are evaluated gated.
	routeCapTripped
)

// groundGroup decides the route of a group of n slots over the distinct
// targets pred(qs[i]) whose first gated run attempted a1 instantiations
// and, when the route allows, grounds sh bound over a scratch copy of
// database, with the edb relations edbs attached, that holds the queries
// qs. The grounding's query q is qs[q]. It returns the grounding only on
// routeGrounded; the route depends on counts alone, so it is the same at
// every Parallelism level.
func groundGroup(sh *magicShape, database *db.Database, edbs []string, pred string, qs []db.Tuple, n int, a1 int64, gopts magic.GroundOptions) (*magic.Grounding, magic.GroundStats, groundRoute, error) {
	if groundCapFactor*(n-len(qs)) <= 1 {
		return nil, magic.GroundStats{}, routeTooFew, nil
	}
	eng, err := sh.bind(database.Scratch(edbs), pred, qs...)
	if err != nil {
		return nil, magic.GroundStats{}, 0, err
	}
	gopts.Cap = int64(groundCapFactor*(n-1)) * a1
	gopts.SizeHint = a1
	g, st, err := magic.Ground(sh.tr, eng, gopts)
	if err != nil {
		return nil, st, 0, err
	}
	if g == nil {
		return nil, st, routeCapTripped, nil
	}
	return g, st, routeGrounded, nil
}

// groundingBuilt, when non-nil, is called with every grounding a Magic^S
// solve completes, before any slot is propagated over it. Tests use it to
// check that a worker holds one ground program at a time.
var groundingBuilt func(*magic.Grounding)

// groupedPhase generates one batch of slots in groups, in two passes of
// p. Pass 1 hands out whole groups, largest first, so a worker holds one
// group's subgraph or grounding at a time. MagicCM groups by target: it
// builds the target's subgraph once and walks it per slot with the slot's
// own stream (a graph shared by several targets would change the walks,
// which draw in CSR order). Magic^S groups by target predicate: it
// evaluates the group's first slot gated and routes the rest
// (groundGroup). Pass 2 spreads the slots Magic^S could not propagate over
// all workers, one gated evaluation each, so a group whose grounding
// aborted is not serialized onto one worker. Every slot's RR set depends
// only on its target and seeds, so results are byte-identical at every
// worker count.
func (m *magicRR) groupedPhase(p *slotPhase) {
	key, nKeys := func(ti int) int { return ti }, len(m.inst.targets)
	if m.sampled {
		key, nKeys = func(ti int) int { return m.shapes.shape[ti] }, len(m.shapes.byPred)
	}
	byKey := make([][]int, nKeys)
	for i, s := range p.slots {
		k := key(s.ti)
		byKey[k] = append(byKey[k], i)
	}
	var groups [][]int
	for _, idx := range byKey {
		if len(idx) > 0 {
			groups = append(groups, idx)
		}
	}
	// Largest groups first, for balance; the order never affects results.
	sort.SliceStable(groups, func(a, b int) bool { return len(groups[a]) > len(groups[b]) })

	routes := make([]groupRoute, len(groups))
	p.run(len(groups), func(w *rrWorker, k int) error {
		if m.sampled {
			return m.sampledGroup(p, w, groups[k], &routes[k])
		}
		return m.unsampledGroup(p, w, groups[k])
	})
	var fallback []int
	failed := false
	for _, w := range p.workers {
		fallback = append(fallback, w.fallback...)
		failed = failed || w.err != nil
	}
	if !failed && len(fallback) > 0 {
		p.run(len(fallback), func(w *rrWorker, k int) error {
			i := fallback[k]
			t0 := w.rec.Start()
			lo := len(w.arena)
			var err error
			w.arena, _, err = m.gatedRR(p.slots[i].ti, p.slots[i].gate(), &w.stats, w.sc, w.arena)
			if err != nil {
				return err
			}
			p.emit(w, i, lo, t0)
			return nil
		})
	}
	if !m.sampled {
		return
	}
	info := &m.route
	drawn := make([]bool, len(m.inst.targets))
	for _, s := range p.slots {
		if !drawn[s.ti] {
			drawn[s.ti] = true
			info.Targets++
		}
	}
	info.Groups += len(groups)
	info.Slots += len(p.slots)
	for k, idx := range groups {
		n := len(idx)
		switch r := routes[k]; r.route {
		case routeGrounded:
			info.Grounded++
			info.GroundedSlots += n
		case routeCapTripped:
			info.CapTripped++
			info.CapSlots += n
			info.CapA1 += r.a1
		default:
			info.TooFew++
			info.TooFewSlots += n
		}
	}
}

// unsampledGroup is MagicCM's pass-1 work for one target's slots idx:
// one subgraph build, then one reverse sampled walk per slot with the
// slot's own PCG stream. Stats record the subgraph once per slot — the
// graph each RR set was drawn from.
func (m *magicRR) unsampledGroup(p *slotPhase, w *rrWorker, idx []int) error {
	t0 := w.rec.Start()
	ti := p.slots[idx[0]].ti
	g, _, err := m.targetGraph(ti, 0, false)
	if err != nil {
		return err
	}
	// The worker's walker keeps its marks for the next target, but not
	// this subgraph.
	defer w.sc.walker.Reset(nil)
	for k, i := range idx {
		if m.ctx.Err() != nil {
			return nil
		}
		if k > 0 {
			t0 = w.rec.Start()
		}
		recordBuild(&w.stats, g)
		lo := len(w.arena)
		w.arena = collectRR(g, m.inst, m.inst.targets[ti], w.seeded(p.slots[i]), false, w.sc, w.arena)
		p.emit(w, i, lo, t0)
	}
	return nil
}

// sampledGroup is Magic^S's pass-1 work for one target predicate's slots
// idx (ascending): the first slot by a gated evaluation, then either one
// propagation per remaining slot, from its own target's seed, over the
// grounding of the multi-seed program of the targets the slots drew, or —
// when the route rejects grounding — the remaining slots queued for
// pass 2. It records the route in r.
func (m *magicRR) sampledGroup(p *slotPhase, w *rrWorker, idx []int, r *groupRoute) error {
	t0 := w.rec.Start()
	// The targets the slots drew, in T2 order: the grounding's queries.
	w.drawn = w.drawn[:0]
	for _, i := range idx {
		w.drawn = append(w.drawn, p.slots[i].ti)
	}
	slices.Sort(w.drawn)
	w.drawn = slices.Compact(w.drawn)
	qs := make([]db.Tuple, len(w.drawn))
	for q, tq := range w.drawn {
		qs[q] = m.inst.targets[tq].Tuple
	}

	lo := len(w.arena)
	ti := p.slots[idx[0]].ti
	var a1 int64
	var err error
	w.arena, a1, err = m.gatedRR(ti, p.slots[idx[0]].gate(), &w.stats, w.sc, w.arena)
	if err != nil {
		return err
	}
	p.emit(w, idx[0], lo, t0)
	rest := idx[1:]

	g, gst, route, err := groundGroup(m.shapeOf(ti), m.in.DB, m.edbs, m.inst.targets[ti].Pred, qs, len(idx), a1,
		magic.GroundOptions{Context: m.ctx, Instr: m.h})
	if err != nil {
		return err
	}
	*r = groupRoute{route: route, a1: a1}
	if route != routeTooFew {
		// The worker held the ground program (or, aborted, its part up to
		// the cap) while it existed.
		w.stats.PeakResidentSize = max(w.stats.PeakResidentSize, gst.Size)
	}
	if g == nil {
		w.fallback = append(w.fallback, rest...)
		return nil
	}
	if groundingBuilt != nil {
		groundingBuilt(g)
	}
	// The worker keeps its propagator's scratch for the next group, but
	// not this ground program.
	defer w.prop.Release()

	// Resolve each target's seed and root, and the candidates, once per
	// grounding.
	w.seeds = slices.Grow(w.seeds[:0], len(m.inst.targets))[:len(m.inst.targets)]
	for q, tq := range w.drawn {
		target := m.inst.targets[tq]
		root, rootOK := g.ProjectedFact(target.Pred, target.Tuple)
		w.seeds[tq] = seedRoot{from: g.Seed(q), root: root, rootOK: rootOK}
	}
	w.cand = slices.Grow(w.cand[:0], g.NumProjected())[:g.NumProjected()]
	for pf := range w.cand {
		w.cand[pf] = -1
	}
	g.EDBFacts(func(pf int32, pred string, t db.Tuple) {
		if c, ok := m.inst.candOf[string(w.sc.factKey(pred, t))]; ok {
			w.cand[pf] = int32(c)
		}
	})
	for _, i := range rest {
		if m.ctx.Err() != nil {
			return nil
		}
		t0 := w.rec.Start()
		lo := len(w.arena)
		s := w.seeds[p.slots[i].ti]
		w.prop.Propagate(g, p.slots[i].gate(), s.from)
		nodes, edges := w.prop.GraphSize()
		recordGraph(&w.stats, nodes, edges)
		if s.rootOK {
			w.reached, _ = w.prop.AppendReached(w.reached[:0], s.root)
			for _, pf := range w.reached {
				if c := w.cand[pf]; c >= 0 {
					w.arena = append(w.arena, im.CandidateID(c))
				}
			}
		}
		p.emit(w, i, lo, t0)
	}
	return nil
}

// seedRoot locates one target in its group's grounding: the seed
// instantiation its propagations start from and its projected root.
// rrWorker.seeds holds one per target, valid for the targets of the
// grounding the worker holds.
type seedRoot struct {
	from, root int32
	rootOK     bool
}

// buildMagicGraph runs eng, an engine of the transformed program tr (its
// Program or its Shape) over a scratch database that shares the original
// edb relations, and returns the projected WD subgraph and the run's
// engine stats. With sampled=true a HashGate seeded with gateSeed vetoes
// instantiations, so the returned graph is one random execution.
// ctx cancels the evaluation between fixpoint rounds. h records the
// evaluation and the build (instr.GraphBuilt, as wdgraph.Build does for
// the full graph, which has neither projection nor gate): the grouped
// variant's one full union-graph build passes the solve's instrument, the
// per-target builds its Quiet form, which keeps their thousands of
// graph.build and engine.round events out of the journal.
func buildMagicGraph(tr *magic.Transformed, eng *engine.Engine, gateSeed uint64, sampled bool,
	ctx context.Context, h *instr.Instr, par int) (*wdgraph.Graph, engine.Stats, error) {
	start := time.Now()
	b := wdgraph.NewBuilder(tr.Projection())
	var gate engine.FireGate
	if sampled {
		gate = magic.NewHashGate(tr, eng, gateSeed)
	}
	est, err := eng.Run(engine.Options{Listener: b.Listener(), Gate: gate, Context: ctx, Parallelism: par, Instr: h})
	if err != nil {
		return nil, est, err
	}
	g := b.Graph()
	h.GraphBuilt(g.NumNodes(), g.NumEdges(), start)
	return g, est, nil
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
