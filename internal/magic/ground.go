package magic

import (
	"context"
	"fmt"

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
// that fixpoint per gate seed by Horn propagation (Dowling–Gallier):
// per-instantiation counters of underived body facts, in time linear in
// the part of the ground program it touches.
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
	// lists i's idb body facts (with multiplicity; edb facts are always
	// present and are not counted), vals[valOff[i]:valOff[i+1]] the origin
	// variable values its gate verdict hashes (sampled rules only).
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

	// Propagation indexes: need[i] counts i's idb body occurrences,
	// seeds[q] is the q-th seed-rule instantiation,
	// watch[watchOff[f]:watchOff[f+1]] the instantiations with idb fact f
	// in their body (one entry per occurrence), and
	// prod[prodOff[p]:prodOff[p+1]] the modified instantiations whose
	// projected head is p.
	need     []int32
	seeds    []int32
	watchOff []int32
	watch    []int32
	prodOff  []int32
	prod     []int32

	// Facts. Idb fact ids are dense: relation rels[k]'s tuple j is fact
	// base[k]+j. Projected facts (wdgraph fact nodes) number nPF: the idb
	// ones first (adorned relations of one predicate merge), then the edb
	// ones from nIDBPF on.
	rels   []*db.Relation
	relOf  map[string]int32 // relation name -> index into rels
	base   []int32
	nFacts int
	nIDBPF int
	nPF    int
	pfOf   map[string]int32 // origin predicate NUL tuple -> projected idb fact
	edbPF  []edbFact        // projected facts nIDBPF.., in id order
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
	g.pfOf = make(map[string]int32)
	var key []byte
	for k, rel := range g.rels {
		orig, ok := r.t.OrigPred(rel.Name())
		for j := 0; j < rel.Len(); j++ {
			f := g.base[k] + int32(j)
			if !ok {
				factPF[f] = -1
				continue
			}
			key = appendFactKey(key[:0], orig, rel.Tuple(db.TupleID(j)))
			p, seen := g.pfOf[string(key)]
			if !seen {
				p = int32(g.nIDBPF)
				g.nIDBPF++
				g.pfOf[string(key)] = p
			}
			factPF[f] = p
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
	g.need = make([]int32, n)
	keys := map[string]int32{}
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
		g.need[i] = int32(len(gr.idbPos))
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
		key = appendID(key[:0], gr.label)
		key = appendID(key, g.pHead[i])
		for _, p := range g.kept[lo:] {
			key = appendID(key, p)
		}
		id, seen := keys[string(key)]
		if !seen {
			id = int32(g.nKeys)
			g.nKeys++
			keys[string(key)] = id
		}
		g.key[i] = id
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

func appendID(dst []byte, id int32) []byte {
	return append(dst, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
}

// appendFactKey encodes pred(t) as pred NUL then 4 big-endian bytes per
// symbol.
func appendFactKey(dst []byte, pred string, t db.Tuple) []byte {
	dst = append(dst, pred...)
	dst = append(dst, 0)
	for _, s := range t {
		dst = append(dst, byte(s>>24), byte(s>>16), byte(s>>8), byte(s))
	}
	return dst
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
	var buf [64]byte
	p, ok := g.pfOf[string(appendFactKey(buf[:0], pred, t))]
	return p, ok
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

// Propagator draws sampled runs over a Grounding. It owns reusable
// counters and epoch-stamped marks, so a steady-state propagation
// allocates nothing and costs only the instantiations and facts it
// touches. It never writes to the Grounding. Not safe for concurrent use;
// give each goroutine its own (several propagators may share one
// Grounding).
type Propagator struct {
	g       *Grounding
	epoch   uint32
	walkEp  uint32
	cnt     []int32  // instantiation -> idb body facts not yet derived
	counted []uint32 // instantiation -> epoch cnt was set in
	fired   []uint32 // instantiation -> epoch it fired in
	derived []uint32 // idb fact -> epoch it was derived in
	pfMark  []uint32
	keyMark []uint32
	walked  []uint32
	queue   []int32
	firedIn []int32 // the fired instantiations, in propagation order
	originH []uint64
}

// Propagate computes the sampled run of g with the given gate seed that
// starts from the seed instantiation from (see Grounding.Seed): the least
// set of instantiations, reached from from, whose HashGate verdict (seeded
// with seed) is yes and whose idb body facts are all derived by
// instantiations of the set. For the seed of query q it equals the run of
// the engine gated by NewHashGate(t, eng, seed) on the program with q
// alone: the verdicts depend only on origin rules and bindings, and the
// instantiations reachable from q's seed are those of q's own unsampled
// run, which a grounding of a program with q among its queries contains.
func (p *Propagator) Propagate(g *Grounding, seed uint64, from int32) {
	p.reset(g)
	for r := range g.gates {
		if g.gates[r].sample {
			p.originH[r] = g.gates[r].originHash(seed)
		}
	}
	ep := p.epoch
	cnt, counted := p.cnt, p.counted
	queue := append(p.queue[:0], from)
	fired := p.firedIn[:0]
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		r := g.rule[i]
		if gr := &g.gates[r]; gr.sample {
			h := p.originH[r]
			for _, v := range g.vals[g.valOff[i]:g.valOff[i+1]] {
				h = mixGate(h, v)
			}
			if !gateFires(h, gr.prob) {
				continue
			}
		}
		p.fired[i] = ep
		fired = append(fired, i)
		f := g.head[i]
		if p.derived[f] == ep {
			continue
		}
		p.derived[f] = ep
		for _, j := range g.watch[g.watchOff[f]:g.watchOff[f+1]] {
			if counted[j] != ep {
				counted[j] = ep
				cnt[j] = g.need[j]
			}
			cnt[j]--
			if cnt[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	p.queue, p.firedIn = queue, fired
}

// reset sizes the scratch for g and opens a new epoch.
func (p *Propagator) reset(g *Grounding) {
	p.g = g
	n := len(g.rule)
	p.cnt = resize(p.cnt, n)
	p.counted = resize(p.counted, n)
	p.fired = resize(p.fired, n)
	p.derived = resize(p.derived, g.nFacts)
	p.pfMark = resize(p.pfMark, g.nPF)
	p.keyMark = resize(p.keyMark, g.nKeys)
	p.walked = resize(p.walked, g.nPF)
	p.originH = resize(p.originH, len(g.gates))
	p.epoch++
	if p.epoch == 0 {
		// Wrapped: stale marks, also those past the current lengths, could
		// equal a future epoch.
		clear(p.counted[:cap(p.counted)])
		clear(p.fired[:cap(p.fired)])
		clear(p.derived[:cap(p.derived)])
		clear(p.pfMark[:cap(p.pfMark)])
		clear(p.keyMark[:cap(p.keyMark)])
		p.epoch = 1
	}
}

// Release drops the propagator's reference to the last propagated
// Grounding, so a propagator kept for reuse does not keep that ground
// program (and the scratch relations it indexes) alive. The scratch is
// kept; Derived, GraphSize and AppendReached need a new Propagate.
func (p *Propagator) Release() { p.g = nil }

// resize returns s with length n, keeping its contents; grown elements are
// zero, which no live epoch equals.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// Derived reports whether idb fact f (see Grounding.Fact) was derived by
// the last propagation.
func (p *Propagator) Derived(f int32) bool { return p.derived[f] == p.epoch }

// GraphSize returns the node and edge counts of the WD graph
// wdgraph.Builder would build from the last propagation's run under the
// Magic projection: its projected facts, its rule nodes (instantiations
// merged by origin label, head and kept body), and one edge per kept body
// fact plus one head edge per rule node. Call it at most once per
// propagation.
func (p *Propagator) GraphSize() (nodes, edges int) {
	g, ep := p.g, p.epoch
	for _, i := range p.firedIn {
		h := g.pHead[i]
		if h < 0 {
			continue
		}
		if p.pfMark[h] != ep {
			p.pfMark[h] = ep
			nodes++
		}
		kept := g.kept[g.keptOff[i]:g.keptOff[i+1]]
		for _, f := range kept {
			if p.pfMark[f] != ep {
				p.pfMark[f] = ep
				nodes++
			}
		}
		if k := g.key[i]; p.keyMark[k] != ep {
			p.keyMark[k] = ep
			nodes++
			edges += len(kept) + 1
		}
	}
	return nodes, edges
}

// AppendReached appends to dst the projected edb facts reverse-reachable
// from projected fact root through the instantiations the last
// propagation fired — the RR set's members before candidate filtering —
// and reports whether root is a node of that run's graph at all. Unlike
// GraphSize it may be called repeatedly, with different roots.
func (p *Propagator) AppendReached(dst []int32, root int32) ([]int32, bool) {
	g, ep := p.g, p.epoch
	p.walkEp++
	if p.walkEp == 0 {
		clear(p.walked[:cap(p.walked)])
		p.walkEp = 1
	}
	wep := p.walkEp
	found := false
	for _, i := range g.prod[g.prodOff[root]:g.prodOff[root+1]] {
		if p.fired[i] == ep {
			found = true
			break
		}
	}
	if !found {
		return dst, false
	}
	p.walked[root] = wep
	stack := append(p.queue[:0], root)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if int(v) >= g.nIDBPF {
			dst = append(dst, v)
			continue
		}
		for _, i := range g.prod[g.prodOff[v]:g.prodOff[v+1]] {
			if p.fired[i] != ep {
				continue
			}
			for _, u := range g.kept[g.keptOff[i]:g.keptOff[i+1]] {
				if p.walked[u] != wep {
					p.walked[u] = wep
					stack = append(stack, u)
				}
			}
		}
	}
	p.queue = stack
	return dst, true
}
