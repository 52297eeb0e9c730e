package magic

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/obs/instr"
)

// Grounding is the ground program of one unsampled evaluation of a
// transformed program: every instantiation the run fired, kept in flat
// arenas, together with the WD-graph projection of the modified ones.
//
// It is what makes Magic^S CM's per-RR evaluation redundant. HashGate
// decides each firing from (seed, origin rule, origin bindings) alone, so
// a sampled run fires exactly the least fixpoint of "an instantiation
// fires iff its gate verdict is yes and all its body facts are derived",
// taken over the instantiations of the unsampled run (Proposition 4.4
// makes that run the target's backward subgraph). Propagator computes
// that fixpoint for up to 64 gate seeds at once by Horn propagation
// (Dowling–Gallier) over slot masks: one bit per seed on every
// instantiation and idb fact, in time linear in the part of the ground
// program the pass touches.
//
// A shape evaluated over several loaded queries of its predicate (Remark
// 1's grouping) grounds once for all of them: the instantiations
// reachable from one query's seed instantiation are that query's own
// unsampled run, so propagation from that seed alone (Grounding.Seed)
// draws the query's sampled runs.
//
// A Grounding is read-only once built.
type Grounding struct {
	gates []gateRule // per rule of the transformed program

	// Per instantiation, in firing order. body[bodyOff[i]:bodyOff[i+1]]
	// lists i's idb body facts (with multiplicity; edb facts are present in
	// every run, so propagation never waits on them), and
	// vals[valOff[i]:valOff[i+1]] the origin variable values its gate
	// verdict hashes (sampled rules only).
	rule    []int32
	head    []int32 // idb fact id
	bodyOff []int32
	body    []int32
	valOff  []int32
	vals    []db.Sym

	// Projection of the modified instantiations (pHead -1 for magic and
	// seed rules): the projected head, the projected kept-body facts
	// kept[keptOff[i]:keptOff[i+1]], and the rule-node id key[i], shared by
	// instantiations wdgraph.Builder merges into one node (same origin
	// label, head and kept body).
	pHead   []int32
	keptOff []int32
	kept    []int32
	key     []int32
	nKeys   int

	// Propagation indexes: seeds[q] is the q-th seed-rule instantiation,
	// watch[watchOff[f]:watchOff[f+1]] the instantiations with idb fact f
	// in their body (one entry per occurrence), and
	// prod[prodOff[p]:prodOff[p+1]] the modified instantiations whose
	// projected head is p.
	seeds    []int32
	watchOff []int32
	watch    []int32
	prodOff  []int32
	prod     []int32

	// Facts. Idb fact ids are dense: relation rels[k]'s tuple j is fact
	// base[k]+j. Projected facts (wdgraph fact nodes) number nPF: the idb
	// ones first (adorned relations of one predicate merge), then the edb
	// ones from nIDBPF on. pf indexes the projected idb facts, hashed over
	// the origin predicate's index (origOf, relOrig) and the tuple, and
	// pfRep holds the first fact that projects to each.
	rels    []*db.Relation
	relOf   map[string]int32 // relation name -> index into rels
	base    []int32
	nFacts  int
	nIDBPF  int
	nPF     int
	origOf  map[string]int32 // origin predicate -> index
	relOrig []int32          // per relation: its origin predicate's index, -1 for magic relations
	pf      db.IDTable
	pfRep   []factRef
	edbPF   []edbFact // projected facts nIDBPF.., in id order
}

// factRef locates one idb fact: tuple id of relation rels[rel].
type factRef struct {
	rel int32
	id  db.TupleID
}

// edbFact locates one projected edb fact.
type edbFact struct {
	rel *db.Relation
	id  db.TupleID
}

// GroundOptions configures Ground.
type GroundOptions struct {
	// Cap, when positive, aborts the grounding once more than Cap
	// instantiations have fired: a gate vetoes every later instantiation
	// and the run stops at the next round boundary.
	Cap int64
	// SizeHint, when positive, is the expected instantiation count (a
	// lower bound such as a sampled run's attempted count), used to
	// presize the recording arena.
	SizeHint int64
	// Context, when non-nil, cancels the run between rounds.
	Context context.Context
	// Instr is forwarded to the engine run (engine.Options.Instr).
	Instr *instr.Instr
}

// GroundStats describes one grounding run.
type GroundStats struct {
	// Engine is the run's engine accounting.
	Engine engine.Stats
	// Aborted reports that the run exceeded GroundOptions.Cap.
	Aborted bool
	// Size is the ground program's resident size in WD-graph units:
	// instantiations and idb facts as nodes, stored body-fact references
	// and one head reference per instantiation as edges. An aborted run
	// reports what it held when it stopped.
	Size int
}

// Ground evaluates t without sampling on eng (compiled from t.Shape() and
// bound over a scratch database holding the loaded queries and empty idb
// relations) and records the run as a Grounding. When the run exceeds
// opts.Cap it returns a nil Grounding with Aborted set.
func Ground(t *Transformed, eng *engine.Engine, opts GroundOptions) (*Grounding, GroundStats, error) {
	rec, err := newRecorder(t)
	if err != nil {
		return nil, GroundStats{}, err
	}
	if opts.SizeHint > 0 {
		rec.raw = make([]int32, 0, 6*opts.SizeHint)
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	eopts := engine.Options{Listener: rec.observe, Context: ctx, Instr: opts.Instr}
	var cg *capGate
	if opts.Cap > 0 {
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		cg = &capGate{limit: opts.Cap, cancel: cancel}
		eopts.Context, eopts.Gate = runCtx, cg
	}
	est, err := eng.Run(eopts)
	st := GroundStats{Engine: est}
	if cg != nil && cg.tripped() && ctx.Err() == nil {
		st.Aborted = true
		st.Size = rec.size()
		return nil, st, nil
	}
	if err != nil {
		return nil, st, err
	}
	st.Size = rec.size()
	return rec.finish(), st, nil
}

// capGate lets the first limit instantiations fire and vetoes the rest,
// canceling the run so it stops at the next round boundary.
type capGate struct {
	n, limit int64
	cancel   func()
}

func (c *capGate) ShouldFire(int, []db.Sym) bool {
	c.n++
	if c.n <= c.limit {
		return true
	}
	if c.n == c.limit+1 {
		c.cancel()
	}
	return false
}

func (c *capGate) tripped() bool { return c.n > c.limit }

// groundRule is the recorder's static view of one rule of the shape.
// Positions index the engine's positive body atoms (the order of
// engine.Derivation.Body).
type groundRule struct {
	modified bool
	seed     bool
	idbPos   []int    // positions over idb relations
	vals     []varRef // where each origin variable's value is read
	keep     []int    // Meta.KeepBody (modified only)
	keepIDB  []bool   // keep[j] is an idb position
	rels     []int32  // relation index per body position (-1: not seen yet)
	headRel  int32    // relation index of the head
	label    int32    // origin-label index (modified only)
	shared   bool     // another modified rule has the same origin label
}

// recordLen is the length of one of the rule's records in recorder.raw:
// rule index, head tuple id, idb body tuple ids, origin-variable values,
// kept-body tuple ids.
func (gr *groundRule) recordLen() int { return 2 + len(gr.idbPos) + len(gr.vals) + len(gr.keep) }

// varRef names an argument of a positive body atom.
type varRef struct{ pos, arg int }

// recorder is the listener that fills a Grounding during the run. It
// appends one flat record per instantiation to raw, holding tuple ids as
// the engine reports them; finish lays the records out per field and
// resolves the ids to fact ids once the relation sizes are final.
type recorder struct {
	t     *Transformed
	g     *Grounding
	rules []groundRule
	idb   map[string]bool
	// relIdx maps every relation the run touches to an index: idb
	// relations into g.rels, edb ones (negative, -1-k) into edb.
	relIdx map[*db.Relation]int32
	edb    []*db.Relation
	raw    []int32
	n      int // records in raw
	refs   int // body and kept tuple ids in raw
}

func newRecorder(t *Transformed) (*recorder, error) {
	g := &Grounding{gates: gateRules(t), relOf: map[string]int32{}}
	r := &recorder{t: t, g: g, idb: map[string]bool{}, relIdx: map[*db.Relation]int32{}}
	shape := t.Shape().Rules
	for _, rule := range shape {
		r.idb[rule.Head.Predicate] = true
	}
	labels := map[string]int32{}
	count := map[string]int{}
	for _, m := range t.Meta {
		if m.Kind == Modified {
			count[m.Origin]++
		}
	}
	r.rules = make([]groundRule, len(shape))
	for i, rule := range shape {
		gr := &r.rules[i]
		m := t.Meta[i]
		gr.seed = m.Kind == SeedRule
		var pos []ast.Atom
		for _, a := range rule.Body {
			if !a.Negated && !ast.IsBuiltin(a.Predicate) {
				pos = append(pos, a)
			}
		}
		gr.rels = make([]int32, len(pos))
		for j, a := range pos {
			gr.rels[j] = -1
			if r.idb[a.Predicate] {
				gr.idbPos = append(gr.idbPos, j)
			}
		}
		gr.headRel = -1
		if g.gates[i].sample {
			for _, v := range m.OriginVars {
				ref, ok := findVar(pos, v)
				if !ok {
					return nil, fmt.Errorf("magic: rule %s: origin variable %s is not bound by a positive body atom", rule.Label, v)
				}
				gr.vals = append(gr.vals, ref)
			}
		}
		if m.Kind != Modified {
			continue
		}
		gr.modified = true
		gr.keep = m.KeepBody
		for _, p := range m.KeepBody {
			gr.keepIDB = append(gr.keepIDB, r.idb[pos[p].Predicate])
		}
		l, ok := labels[m.Origin]
		if !ok {
			l = int32(len(labels))
			labels[m.Origin] = l
		}
		gr.label = l
		gr.shared = count[m.Origin] > 1
	}
	return r, nil
}

// findVar returns the first argument of the positive atoms bound to
// variable v. Every origin variable of a safe rule occurs in a positive
// body atom (built-ins only filter).
func findVar(pos []ast.Atom, v string) (varRef, bool) {
	for j, a := range pos {
		for k, term := range a.Terms {
			if term.IsVar() && term.Name == v {
				return varRef{j, k}, true
			}
		}
	}
	return varRef{}, false
}

// rel returns the index of rel, registering it on first sight.
func (r *recorder) rel(rel *db.Relation, idb bool) int32 {
	if k, ok := r.relIdx[rel]; ok {
		return k
	}
	var k int32
	if idb {
		k = int32(len(r.g.rels))
		r.g.relOf[rel.Name()] = k
		r.g.rels = append(r.g.rels, rel)
	} else {
		k = -1 - int32(len(r.edb))
		r.edb = append(r.edb, rel)
	}
	r.relIdx[rel] = k
	return k
}

// observe records one fired instantiation. The relation behind each body
// position of a compiled rule is fixed, so it is resolved on the rule's
// first derivation and the record stores raw tuple ids.
func (r *recorder) observe(d engine.Derivation) {
	gr := &r.rules[d.RuleIndex]
	if gr.headRel < 0 {
		gr.headRel = r.rel(d.Head.Rel, true)
		for j, ref := range d.Body {
			gr.rels[j] = r.rel(ref.Rel, r.idb[ref.Rel.Name()])
		}
	}
	raw := append(r.raw, int32(d.RuleIndex), int32(d.Head.ID))
	for _, p := range gr.idbPos {
		raw = append(raw, int32(d.Body[p].ID))
	}
	for _, v := range gr.vals {
		ref := d.Body[v.pos]
		raw = append(raw, int32(ref.Rel.Tuple(ref.ID)[v.arg]))
	}
	for _, p := range gr.keep {
		raw = append(raw, int32(d.Body[p].ID))
	}
	r.raw = raw
	r.n++
	r.refs += len(gr.idbPos) + len(gr.keep)
}

// size reports the recorded program's resident size (GroundStats.Size).
func (r *recorder) size() int {
	facts := 0
	for _, rel := range r.g.rels {
		facts += rel.Len()
	}
	return facts + r.n + r.refs + r.n
}

// finish resolves the recorded tuple ids to fact ids, projects the
// modified instantiations and builds the propagation indexes.
func (r *recorder) finish() *Grounding {
	g := r.g
	g.base = make([]int32, len(g.rels))
	for k, rel := range g.rels {
		g.base[k] = int32(g.nFacts)
		g.nFacts += rel.Len()
	}
	n := r.n

	// Projected idb facts: one per (origin predicate, tuple); magic
	// relations project to nothing.
	factPF := make([]int32, g.nFacts)
	g.origOf = map[string]int32{}
	g.relOrig = make([]int32, len(g.rels))
	for k, rel := range g.rels {
		facts := factPF[g.base[k] : int(g.base[k])+rel.Len()]
		orig, ok := r.t.OrigPred(rel.Name())
		if !ok {
			g.relOrig[k] = -1
			for j := range facts {
				facts[j] = -1
			}
			continue
		}
		o, seen := g.origOf[orig]
		if !seen {
			o = int32(len(g.origOf))
			g.origOf[orig] = o
		}
		g.relOrig[k] = o
		for j := range facts {
			t := rel.Tuple(db.TupleID(j))
			p, seen := g.pf.FindOrAdd(t.Hash(uint64(o)), int32(g.nIDBPF), g.isPF(o, t))
			if !seen {
				g.nIDBPF++
				g.pfRep = append(g.pfRep, factRef{rel: int32(k), id: db.TupleID(j)})
			}
			facts[j] = p
		}
	}
	g.nPF = g.nIDBPF
	edbPF := map[uint64]int32{}

	// Field totals, then one pass that lays the records out per field.
	var nBody, nVals, nKept int
	for at := 0; at < len(r.raw); {
		gr := &r.rules[r.raw[at]]
		nBody += len(gr.idbPos)
		nVals += len(gr.vals)
		nKept += len(gr.keep)
		at += gr.recordLen()
	}
	g.rule = make([]int32, n)
	g.head = make([]int32, n)
	g.bodyOff = make([]int32, n+1)
	g.body = make([]int32, 0, nBody)
	g.valOff = make([]int32, n+1)
	g.vals = make([]db.Sym, 0, nVals)
	g.keptOff = make([]int32, n+1)
	g.kept = make([]int32, 0, nKept)
	g.pHead = make([]int32, n)
	g.key = make([]int32, n)
	var keys db.IDTable // shared-label rule nodes -> their first instantiation
	at := 0
	for i := 0; i < n; i++ {
		rec := r.raw[at:]
		gr := &r.rules[rec[0]]
		at += gr.recordLen()
		g.rule[i] = rec[0]
		g.head[i] = g.base[gr.headRel] + rec[1]
		rec = rec[2:]
		for j, p := range gr.idbPos {
			g.body = append(g.body, g.base[gr.rels[p]]+rec[j])
		}
		g.bodyOff[i+1] = int32(len(g.body))
		if gr.seed {
			g.seeds = append(g.seeds, int32(i))
		}
		rec = rec[len(gr.idbPos):]
		for j := range gr.vals {
			g.vals = append(g.vals, db.Sym(rec[j]))
		}
		g.valOff[i+1] = int32(len(g.vals))
		rec = rec[len(gr.vals):]
		if !gr.modified {
			g.keptOff[i+1] = int32(len(g.kept))
			g.pHead[i], g.key[i] = -1, -1
			continue
		}
		g.pHead[i] = factPF[g.head[i]]
		lo := len(g.kept)
		for j, p := range gr.keep {
			k := gr.rels[p]
			if gr.keepIDB[j] {
				g.kept = append(g.kept, factPF[g.base[k]+rec[j]])
				continue
			}
			ek := uint64(uint32(-1-k))<<32 | uint64(uint32(rec[j]))
			pf, ok := edbPF[ek]
			if !ok {
				pf = int32(g.nPF)
				g.nPF++
				edbPF[ek] = pf
				g.edbPF = append(g.edbPF, edbFact{rel: r.edb[-1-k], id: db.TupleID(rec[j])})
			}
			g.kept = append(g.kept, pf)
		}
		g.keptOff[i+1] = int32(len(g.kept))
		if !gr.shared {
			g.key[i] = int32(g.nKeys)
			g.nKeys++
			continue
		}
		// Adorned versions of one origin rule can fire the same projected
		// instantiation; wdgraph.Builder merges those into one rule node.
		kept := g.kept[lo:]
		h := db.HashIDs(uint64(gr.label)<<32|uint64(uint32(g.pHead[i])), kept)
		first, seen := keys.FindOrAdd(h, int32(i), func(j int32) bool {
			return r.rules[g.rule[j]].label == gr.label && g.pHead[j] == g.pHead[i] &&
				slices.Equal(g.kept[g.keptOff[j]:g.keptOff[j+1]], kept)
		})
		if seen {
			g.key[i] = g.key[first]
			continue
		}
		g.key[i] = int32(g.nKeys)
		g.nKeys++
	}
	r.raw = nil

	g.watchOff = csrOffsets(g.nFacts, g.body)
	g.watch = make([]int32, len(g.body))
	fill := append([]int32(nil), g.watchOff[:g.nFacts]...)
	for i := 0; i < n; i++ {
		for _, f := range g.body[g.bodyOff[i]:g.bodyOff[i+1]] {
			g.watch[fill[f]] = int32(i)
			fill[f]++
		}
	}
	g.prodOff = make([]int32, g.nPF+1)
	for _, p := range g.pHead {
		if p >= 0 {
			g.prodOff[p+1]++
		}
	}
	for p := 0; p < g.nPF; p++ {
		g.prodOff[p+1] += g.prodOff[p]
	}
	g.prod = make([]int32, g.prodOff[g.nPF])
	fill = append(fill[:0], g.prodOff[:g.nPF]...)
	for i, p := range g.pHead {
		if p >= 0 {
			g.prod[fill[p]] = int32(i)
			fill[p]++
		}
	}
	return g
}

// csrOffsets returns the CSR offsets of n buckets holding the given items.
func csrOffsets(n int, items []int32) []int32 {
	off := make([]int32, n+1)
	for _, f := range items {
		off[f+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	return off
}

// Instantiations returns the number of recorded instantiations.
func (g *Grounding) Instantiations() int { return len(g.rule) }

// Fact returns the idb fact id of the tuple t of relation pred (an adorned
// or magic predicate of the transformed program), if the unsampled run
// derived it.
func (g *Grounding) Fact(pred string, t db.Tuple) (int32, bool) {
	k, ok := g.relOf[pred]
	if !ok {
		return 0, false
	}
	id, ok := g.rels[k].Contains(t)
	if !ok {
		return 0, false
	}
	return g.base[k] + int32(id), true
}

// ProjectedFact returns the projected fact (WD-graph fact node) of the
// idb fact pred(t), pred an origin-program predicate, if the unsampled run
// derived it under any adornment.
func (g *Grounding) ProjectedFact(pred string, t db.Tuple) (int32, bool) {
	o, ok := g.origOf[pred]
	if !ok {
		return 0, false
	}
	return g.pf.Find(t.Hash(uint64(o)), g.isPF(o, t))
}

// isPF returns the test of whether projected idb fact p is the fact t of
// origin predicate o.
func (g *Grounding) isPF(o int32, t db.Tuple) func(p int32) bool {
	return func(p int32) bool {
		rep := g.pfRep[p]
		return g.relOrig[rep.rel] == o && g.rels[rep.rel].Tuple(rep.id).Equal(t)
	}
}

// EDBFacts calls fn for every projected edb fact: the edb facts in kept
// body positions of modified instantiations, in id order.
func (g *Grounding) EDBFacts(fn func(pf int32, pred string, t db.Tuple)) {
	for i, f := range g.edbPF {
		fn(int32(g.nIDBPF+i), f.rel.Name(), f.rel.Tuple(f.id))
	}
}

// NumProjected returns the number of projected facts; ids are dense in
// [0, NumProjected()).
func (g *Grounding) NumProjected() int { return g.nPF }

// Seed returns the instantiation that seeds query q, the q-th distinct
// query loaded (Transformed.LoadQueries): where propagation of a sampled
// run for that query starts. It is the q-th seed-rule instantiation, which
// is query q's when the grounding covers one query predicate, as Magic^S
// CM's do.
func (g *Grounding) Seed(q int) int32 { return g.seeds[q] }

// SlotsPerPass is the most sampled runs one Propagate draws: one bit of a
// uint64 mask per run.
const SlotsPerPass = 64

// Propagator draws sampled runs over a Grounding, up to SlotsPerPass of
// them in one pass. Run s of a pass is slot s: bit s of a per-instantiation
// mask records the runs in which the instantiation's body was complete
// (tried) and those in which it fired, and bit s of a per-fact mask the
// runs that derived the fact. The arrays are reused from pass to pass and
// reset through lists of what the pass touched, so a steady-state pass
// allocates nothing and costs only the instantiations and facts it
// touches. It never writes to the Grounding. Not safe for concurrent use;
// give each goroutine its own (several propagators may share one
// Grounding).
type Propagator struct {
	g       *Grounding
	tried   []uint64 // instantiation -> slots its idb body was derived in
	fired   []uint64 // instantiation -> slots it fired in
	derived []uint64 // idb fact -> slots it was derived in
	queued  []bool   // idb fact -> in queue
	queue   []int32  // facts whose mask grew since they were last read, FIFO
	insts   []int32  // instantiations with tried != 0
	facts   []int32  // facts with derived != 0
	originH []uint64 // rule*SlotsPerPass + slot -> origin hash (sampled rules)

	// Scratch of Sizes (the slots each projected fact p, at p, and rule
	// node k, at nPF+k, was counted in, and the entries it set) and of
	// AppendReached. All zero or empty between calls.
	sizeMask []uint64
	sized    []int32
	walked   []bool
	marked   []int32
}

// Propagate computes len(seeds) sampled runs of g at once. Slot s is the
// run with gate seed seeds[s] that starts from the seed instantiation
// froms[s] (see Grounding.Seed): the least set of instantiations, reached
// from froms[s], whose HashGate verdict (seeded with seeds[s]) is yes and
// whose idb body facts are all derived by instantiations of the set. For
// the seed of query q it equals the run of the engine gated by
// NewHashGate(t, eng, seeds[s]) on the program with q alone: the verdicts
// depend only on origin rules and bindings, and the instantiations
// reachable from q's seed are those of q's own unsampled run, which a
// grounding of a program with q among its queries contains. The slots may
// start from the seeds of different queries. len(seeds) = len(froms) is at
// most SlotsPerPass.
//
// Each run is a least fixpoint, so it does not depend on the order the
// pass visits instantiations in, and bit s of the masks follows slot s's
// run alone. An instantiation is attempted, with the slots in which its
// body is complete and that it has not been attempted in, when a body
// fact's mask grows; its verdict is hashed once per such slot. Facts wait
// in a FIFO queue, at most once each, so the bits of several slots collect
// while a fact waits and its watchers are read once for all of them.
func (p *Propagator) Propagate(g *Grounding, seeds []uint64, froms []int32) {
	if len(seeds) != len(froms) || len(seeds) > SlotsPerPass {
		panic(fmt.Sprintf("magic: Propagate of %d seeds from %d instantiations", len(seeds), len(froms)))
	}
	p.reset(g)
	for r := range g.gates {
		if g.gates[r].sample {
			hs := p.originH[r*SlotsPerPass:]
			for s, seed := range seeds {
				hs[s] = g.gates[r].originHash(seed)
			}
		}
	}
	for s, from := range froms {
		p.attempt(from, 1<<s)
	}
	for k := 0; k < len(p.queue); k++ {
		f := p.queue[k]
		p.queued[f] = false
		df := p.derived[f]
		for _, j := range g.watch[g.watchOff[f]:g.watchOff[f+1]] {
			avail := df &^ p.tried[j]
			if avail == 0 {
				continue
			}
			for _, b := range g.body[g.bodyOff[j]:g.bodyOff[j+1]] {
				avail &= p.derived[b]
			}
			if avail != 0 {
				p.attempt(j, avail)
			}
		}
	}
	p.queue = p.queue[:0]
}

// attempt tries instantiation j in the slots of avail: it draws j's
// verdict in each slot it was not tried in yet and grows its head's mask
// by the slots it fires in, queueing the head when the mask grows.
func (p *Propagator) attempt(j int32, avail uint64) {
	g := p.g
	fresh := avail &^ p.tried[j]
	if fresh == 0 {
		return
	}
	if p.tried[j] == 0 {
		p.insts = append(p.insts, j)
	}
	p.tried[j] |= fresh
	fires := fresh
	r := g.rule[j]
	if gr := &g.gates[r]; gr.sample {
		fires = 0
		vals := g.vals[g.valOff[j]:g.valOff[j+1]]
		hs := p.originH[int(r)*SlotsPerPass:]
		for m := fresh; m != 0; m &= m - 1 {
			s := bits.TrailingZeros64(m)
			h := hs[s]
			for _, v := range vals {
				h = mixGate(h, v)
			}
			if gateFires(h, gr.prob) {
				fires |= 1 << s
			}
		}
		if fires == 0 {
			return
		}
	}
	p.fired[j] |= fires
	f := g.head[j]
	if fires&^p.derived[f] == 0 {
		return
	}
	if p.derived[f] == 0 {
		p.facts = append(p.facts, f)
	}
	p.derived[f] |= fires
	if !p.queued[f] {
		p.queued[f] = true
		p.queue = append(p.queue, f)
	}
}

// reset clears what the last pass touched and sizes the arrays for g.
// Every mask is zero between passes up to its capacity, so growing or
// shrinking the arrays exposes no stale bits.
func (p *Propagator) reset(g *Grounding) {
	for _, i := range p.insts {
		p.tried[i], p.fired[i] = 0, 0
	}
	for _, f := range p.facts {
		p.derived[f] = 0
	}
	p.insts, p.facts = p.insts[:0], p.facts[:0]
	p.g = g
	p.tried = resize(p.tried, len(g.rule))
	p.fired = resize(p.fired, len(g.rule))
	p.derived = resize(p.derived, g.nFacts)
	p.queued = resize(p.queued, g.nFacts)
	p.originH = resize(p.originH, len(g.gates)*SlotsPerPass)
	p.sizeMask = resize(p.sizeMask, g.nPF+g.nKeys)
	p.walked = resize(p.walked, g.nPF)
}

// Release drops the propagator's reference to the last propagated
// Grounding, so a propagator kept for reuse does not keep that ground
// program (and the scratch relations it indexes) alive. The scratch is
// kept; Derived, Sizes and AppendReached need a new Propagate.
func (p *Propagator) Release() { p.g = nil }

// resize returns s with length n, keeping its contents; grown elements are
// zero.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// Derived reports whether idb fact f (see Grounding.Fact) was derived in
// slot s of the last pass.
func (p *Propagator) Derived(f int32, s int) bool { return p.derived[f]>>s&1 != 0 }

// Sizes sets nodes[s] and edges[s], for every slot s of the last pass, to
// the node and edge counts of the WD graph wdgraph.Builder would build
// from slot s's run under the Magic projection: its projected facts, its
// rule nodes (instantiations merged by origin label, head and kept body),
// and one edge per kept body fact plus one head edge per rule node. It
// reads the fired masks in one sweep over the instantiations the pass
// touched. nodes and edges must be at least as long as the pass; entries
// past it are set to zero.
func (p *Propagator) Sizes(nodes, edges []int) {
	g := p.g
	clear(nodes)
	clear(edges)
	// count adds node x (and width edges) to the slots of m it was not
	// counted in yet.
	count := func(x int32, m uint64, width int) {
		fresh := m &^ p.sizeMask[x]
		if fresh == 0 {
			return
		}
		if p.sizeMask[x] == 0 {
			p.sized = append(p.sized, x)
		}
		p.sizeMask[x] |= fresh
		for ; fresh != 0; fresh &= fresh - 1 {
			s := bits.TrailingZeros64(fresh)
			nodes[s]++
			edges[s] += width
		}
	}
	for _, i := range p.insts {
		h, m := g.pHead[i], p.fired[i]
		if h < 0 || m == 0 {
			continue
		}
		count(h, m, 0)
		kept := g.kept[g.keptOff[i]:g.keptOff[i+1]]
		for _, f := range kept {
			count(f, m, 0)
		}
		count(int32(g.nPF)+g.key[i], m, len(kept)+1)
	}
	for _, x := range p.sized {
		p.sizeMask[x] = 0
	}
	p.sized = p.sized[:0]
}

// AppendReached appends to dst the projected edb facts reverse-reachable
// from projected fact root through the instantiations slot s of the last
// pass fired — the RR set's members before candidate filtering — and
// reports whether root is a node of that run's graph at all. It may be
// called repeatedly, with different roots and slots.
func (p *Propagator) AppendReached(dst []int32, root int32, s int) ([]int32, bool) {
	g, bit := p.g, uint64(1)<<s
	found := false
	for _, i := range g.prod[g.prodOff[root]:g.prodOff[root+1]] {
		if p.fired[i]&bit != 0 {
			found = true
			break
		}
	}
	if !found {
		return dst, false
	}
	p.walked[root] = true
	marked := append(p.marked[:0], root)
	stack := append(p.queue[:0], root)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if int(v) >= g.nIDBPF {
			dst = append(dst, v)
			continue
		}
		for _, i := range g.prod[g.prodOff[v]:g.prodOff[v+1]] {
			if p.fired[i]&bit == 0 {
				continue
			}
			for _, u := range g.kept[g.keptOff[i]:g.keptOff[i+1]] {
				if !p.walked[u] {
					p.walked[u] = true
					marked = append(marked, u)
					stack = append(stack, u)
				}
			}
		}
	}
	for _, u := range marked {
		p.walked[u] = false
	}
	p.marked, p.queue = marked, stack
	return dst, true
}
