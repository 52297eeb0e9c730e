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
// The draw is a hash of (gate seed, origin rule, origin bindings)
// (magic.HashGate), so a sampled run is a sub-run of the unsampled one.
// Each batch of RR slots is drawn per target: the target's first RR set by
// a gated evaluation, the others by Horn propagation over one recorded
// unsampled evaluation (magic.Grounding) when that pays — see
// groundTarget — and by gated evaluations otherwise. Every RR set equals
// the gated evaluation's as a set.
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
		trs:    make([]*magic.Transformed, len(s.inst.targets)),
		routes: make([]targetRoute, len(s.inst.targets)),
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
// SIPS, transformed and compiled once per solve. A ground, all-bound
// query enters its program only through the seed fact, so every engine
// run for a target of the predicate binds this one compilation, with the
// target's own seed, over a fresh scratch database.
type magicShape struct {
	tr       *magic.Transformed // the program of the predicate's first target
	compiled *engine.Compiled
}

// newMagicShapes transforms and compiles one shape per distinct target
// predicate, in target order, planning through pl, and returns each
// target's shape. Compilations and plan requests thus depend on the
// targets alone, not on the RR slots, Parallelism or scheduling.
func newMagicShapes(inst *instance, sips magic.SIPS, pl *planner.Planner) ([]*magicShape, error) {
	byPred := map[string]*magicShape{}
	shapes := make([]*magicShape, len(inst.targets))
	for ti, target := range inst.targets {
		sh := byPred[target.Pred]
		if sh == nil {
			tr, err := magic.TransformWith(inst.prog, []ast.Atom{inst.atomOf(target)}, sips)
			if err != nil {
				return nil, err
			}
			c, err := engine.Compile(tr.Program, inst.in.DB.Symbols(), pl)
			if err != nil {
				return nil, err
			}
			sh = &magicShape{tr: tr, compiled: c}
			byPred[target.Pred] = sh
		}
		shapes[ti] = sh
	}
	return shapes, nil
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
	// shapes holds each target's compiled shape (read-only); trs caches
	// each target's program, bound from its shape: a batch's owner of the
	// target fills it in pass 1 (unless an earlier batch did), pass 2 and
	// later batches only read it.
	shapes []*magicShape
	trs    []*magic.Transformed
	// routes records, per target, Magic^S's route in the current batch and
	// its first gated run's attempted instantiations (written by the owner).
	routes []targetRoute
	// route sums Magic^S's routes over every batch of the solve: the one
	// rr.route event.
	route journal.RouteInfo
}

// targetRoute is one target's route decision (see groundTarget).
type targetRoute struct {
	route groundRoute
	a1    int64
}

// transform returns target ti's Magic program, rebound from its shape's
// on first use.
func (m *magicRR) transform(ti int) (*magic.Transformed, error) {
	if m.trs[ti] == nil {
		tr, err := m.shapes[ti].tr.Rebind(m.inst.atomOf(m.inst.targets[ti]))
		if err != nil {
			return nil, err
		}
		m.trs[ti] = tr
	}
	return m.trs[ti], nil
}

// gatedRR evaluates target ti's Magic program gated by gateSeed (one
// Magic^S sampled run), records the subgraph in st and appends the RR set
// to arena. It also returns the run's attempted instantiations (fired plus
// gate-suppressed).
func (m *magicRR) gatedRR(ti int, gateSeed uint64, st *Stats, sc *rrScratch, arena []im.CandidateID) ([]im.CandidateID, int64, error) {
	tr, err := m.transform(ti)
	if err != nil {
		return arena, 0, err
	}
	// Per-tuple subgraphs build without the engine pipeline: the RR phase
	// already runs one worker per Parallelism slot, and the subgraphs are
	// small — a second goroutine per build would oversubscribe.
	g, est, err := buildMagicGraph(tr, m.shapes[ti].compiled, m.in.DB.Scratch(m.edbs), gateSeed, true, m.ctx, m.h, 0)
	if err != nil {
		return arena, 0, err
	}
	recordBuild(st, g)
	return collectRR(g, m.inst, m.inst.targets[ti], nil, true, sc, arena), est.Instantiations + est.Suppressed, nil
}

// groundCapFactor is c in the grounding route (see groundTarget): a
// target's grounding may fire at most c·(n−1)·A₁ instantiations, n the
// target's slot count and A₁ the instantiations its first gated run
// attempted. Per instantiation, a grounding and a gated run cost about the
// same: 1.1–1.3 µs per instantiation for a grounding (compile, unsampled
// fixpoint, recording listener, index build) against 1.1–1.2 µs per
// attempted instantiation for a gated run (compile, gated fixpoint,
// WD-graph builder), while a propagation costs about 0.05 µs per ground
// instantiation (internal/magic BenchmarkGrounding, BenchmarkGatedRun and
// BenchmarkPropagate on AMIE-8 targets, 2-vCPU linux/amd64 host). So with
// c = 1 a grounding that completes costs at most about as much as the n−1
// gated runs it replaces, and one that aborts wastes at most that much.
const groundCapFactor = 1

// groundRoute is how a target's slots after the first were drawn.
type groundRoute uint8

const (
	// routeTooFew: c·(n−1) <= 1, so the cap would be at most A₁ and is
	// certain to trip (every instantiation the first run attempted is one
	// of the unsampled run); the slots are evaluated gated.
	routeTooFew groundRoute = iota
	// routeGrounded: one grounding, one propagation per slot.
	routeGrounded
	// routeCapTripped: the grounding exceeded its cap and was dropped; the
	// slots are evaluated gated.
	routeCapTripped
)

// groundTarget decides the route of a target with n slots whose first
// gated run attempted a1 instantiations, and grounds tr (bound from its
// compiled program c over a scratch copy of database with the edb
// relations edbs attached) when the route allows. It returns the grounding
// only on routeGrounded; the route depends on counts alone, so it is the
// same at every Parallelism level.
func groundTarget(tr *magic.Transformed, c *engine.Compiled, database *db.Database, edbs []string, n int, a1 int64, gopts magic.GroundOptions) (*magic.Grounding, magic.GroundStats, groundRoute, error) {
	if groundCapFactor*(n-1) <= 1 {
		return nil, magic.GroundStats{}, routeTooFew, nil
	}
	eng, err := c.Bind(tr.Program, database.Scratch(edbs))
	if err != nil {
		return nil, magic.GroundStats{}, 0, err
	}
	gopts.Cap = int64(groundCapFactor*(n-1)) * a1
	gopts.SizeHint = a1
	g, st, err := magic.Ground(tr, eng, gopts)
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

// groupedPhase generates one batch of slots grouped by target, in two
// passes of p. Pass 1 hands out whole targets, so a worker holds one
// target's subgraph or grounding at a time: MagicCM builds the subgraph
// once and walks it per slot; Magic^S evaluates the first slot gated and
// routes the rest (groundTarget). Pass 2 spreads the slots Magic^S could
// not propagate over all workers, one gated evaluation each, so a target
// whose grounding aborted is not serialized onto one worker. Every slot's
// RR set depends only on its target and seeds, so results are
// byte-identical at every worker count.
func (m *magicRR) groupedPhase(p *slotPhase) {
	byTarget := make([][]int, len(m.inst.targets))
	for i, s := range p.slots {
		byTarget[s.ti] = append(byTarget[s.ti], i)
	}
	var groups []int
	for ti, idx := range byTarget {
		if len(idx) > 0 {
			groups = append(groups, ti)
		}
	}
	// Largest groups first, for balance; the order never affects results.
	sort.SliceStable(groups, func(a, b int) bool { return len(byTarget[groups[a]]) > len(byTarget[groups[b]]) })

	p.run(len(groups), func(w *rrWorker, k int) error {
		ti := groups[k]
		if m.sampled {
			return m.sampledGroup(p, w, ti, byTarget[ti])
		}
		return m.unsampledGroup(p, w, ti, byTarget[ti])
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
	info.Targets += len(groups)
	info.Slots += len(p.slots)
	for _, ti := range groups {
		n := len(byTarget[ti])
		switch r := m.routes[ti]; r.route {
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

// unsampledGroup is MagicCM's pass-1 work for target ti: one subgraph
// build, then one reverse sampled walk per slot with the slot's own PCG
// stream. Stats record the subgraph once per slot — the graph each RR set
// was drawn from.
func (m *magicRR) unsampledGroup(p *slotPhase, w *rrWorker, ti int, idx []int) error {
	t0 := w.rec.Start()
	tr, err := m.transform(ti)
	if err != nil {
		return err
	}
	g, _, err := buildMagicGraph(tr, m.shapes[ti].compiled, m.in.DB.Scratch(m.edbs), 0, false, m.ctx, m.h, 0)
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

// sampledGroup is Magic^S's pass-1 work for target ti: the first slot by
// a gated evaluation, then either one propagation per remaining slot over
// the target's grounding, or — when the route rejects grounding — the
// remaining slots queued for pass 2.
func (m *magicRR) sampledGroup(p *slotPhase, w *rrWorker, ti int, idx []int) error {
	t0 := w.rec.Start()
	lo := len(w.arena)
	var a1 int64
	var err error
	w.arena, a1, err = m.gatedRR(ti, p.slots[idx[0]].gate(), &w.stats, w.sc, w.arena)
	if err != nil {
		return err
	}
	p.emit(w, idx[0], lo, t0)
	rest := idx[1:]

	g, gst, route, err := groundTarget(m.trs[ti], m.shapes[ti].compiled, m.in.DB, m.edbs, len(idx), a1,
		magic.GroundOptions{Context: m.ctx, Instr: m.h})
	if err != nil {
		return err
	}
	m.routes[ti] = targetRoute{route: route, a1: a1}
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
	// The worker keeps its propagator's scratch for the next target, but
	// not this ground program.
	defer w.prop.Release()

	// Resolve the target and the candidates once per grounding.
	target := m.inst.targets[ti]
	root, rootOK := g.ProjectedFact(target.Pred, target.Tuple)
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
		w.prop.Propagate(g, p.slots[i].gate())
		nodes, edges := w.prop.GraphSize()
		recordGraph(&w.stats, nodes, edges)
		if rootOK {
			w.reached, _ = w.prop.AppendReached(w.reached[:0], root)
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

// buildMagicGraph evaluates the transformed program tr, bound from its
// compiled program c over the scratch database scratch (which shares the
// original edb relations), and returns the projected WD subgraph and the
// run's engine stats. With sampled=true a HashGate seeded with gateSeed
// vetoes instantiations, so the returned graph is one random execution.
// ctx cancels the evaluation between fixpoint rounds. h records the
// evaluation and the build (instr.GraphBuilt; the gate construction needs
// the engine, so this cannot delegate to wdgraph.BuildWith): the grouped
// variant's one full union-graph build passes the solve's instrument, the
// per-target builds its Quiet form, which keeps their thousands of
// graph.build and engine.round events out of the journal.
func buildMagicGraph(tr *magic.Transformed, c *engine.Compiled, scratch *db.Database, gateSeed uint64, sampled bool,
	ctx context.Context, h *instr.Instr, par int) (*wdgraph.Graph, engine.Stats, error) {
	start := time.Now()
	eng, err := c.Bind(tr.Program, scratch)
	if err != nil {
		return nil, engine.Stats{}, err
	}
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
