package wdgraph

import (
	"context"
	"slices"
	"strconv"
	"strings"
	"time"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/obs/instr"
	"contribmax/internal/planner"
)

// Projection controls how fired rule instantiations map into WD-graph nodes
// and edges. The identity projection (used by NaiveCM, Algorithm 1) records
// every instantiation as-is; the Magic-Sets algorithms use a projection that
// drops magic/query/seed rules, strips adornments from predicate names, and
// drops magic body atoms — which is what makes the constructed graph
// isomorphic to the relevant subgraph of the full WD graph (Section IV-B1).
type Projection struct {
	// IncludeRule reports whether instantiations of rule i appear in the
	// graph at all.
	IncludeRule func(ruleIndex int) bool
	// RuleLabel returns the label recorded on instantiation nodes of rule
	// i. Magic-Sets modified rules return their origin rule's label so that
	// instantiations of different adorned versions of one origin rule merge
	// into a single node.
	RuleLabel func(ruleIndex int) string
	// RuleWeight returns the probability w(r) recorded on instantiation
	// nodes of rule i: the weight of each one's out-edge.
	RuleWeight func(ruleIndex int) float64
	// MapPred maps a predicate to the name recorded on fact nodes and
	// reports whether facts of that predicate are edb. ok=false drops the
	// fact (used for magic predicates in rule bodies).
	MapPred func(pred string) (mapped string, edb bool, ok bool)
	// KeepBody returns the body positions of rule i that carry original
	// (non-magic) atoms; nil keeps all positions.
	KeepBody func(ruleIndex int) []int

	// distinctInstantiations records that no two fired instantiations can
	// project to the same rule node, so the builder keeps no rule-node merge table.
	// Only IdentityProjection sets it, after checking that the program's
	// rule labels are distinct: the engine fires each (rule, body facts)
	// instantiation once, and under the identity projection a label names
	// one rule and a fact node one fact.
	distinctInstantiations bool
}

// IdentityProjection returns the projection matching Definition 3.1 for an
// untransformed program: all rules included, fact predicates unchanged, edb
// = predicates never appearing in a rule head.
func IdentityProjection(prog *ast.Program) *Projection {
	edb := map[string]bool{}
	for _, p := range prog.EDBs() {
		edb[p] = true
	}
	rules := prog.Rules
	labels := make(map[string]bool, len(rules))
	for _, r := range rules {
		labels[r.Label] = true
	}
	return &Projection{
		IncludeRule: func(int) bool { return true },
		RuleLabel:   func(i int) string { return rules[i].Label },
		RuleWeight:  func(i int) float64 { return rules[i].Prob },
		MapPred: func(pred string) (string, bool, bool) {
			return pred, edb[pred], true
		},
		KeepBody:               func(int) []int { return nil },
		distinctInstantiations: len(labels) == len(rules),
	}
}

// An edge is logged as the node it enters and the node it leaves, in the
// order the builder adds it; finalize sorts the log by the entered node.
// Its weight is its source's, so the log carries none.
type edge struct{ to, from NodeID }

// Log chunks double from firstChunk to maxChunk entries. The first is
// small because most builds are small (a Magic RR subgraph has tens of
// edges); the cap bounds the unfilled tail of a full graph's log.
const firstChunk, maxChunk = 8, 1 << 13

// chunkLog is an insertion-ordered log kept in chunks, so that appending
// never copies what is already logged.
type chunkLog[T any] struct {
	full [][]T // filled chunks, in order
	cur  []T   // the chunk being filled
}

func (l *chunkLog[T]) add(e T) {
	if len(l.cur) == cap(l.cur) {
		c := firstChunk
		if l.cur != nil {
			l.full = append(l.full, l.cur)
			c = min(2*cap(l.cur), maxChunk)
		}
		l.cur = make([]T, 0, c)
	}
	l.cur = append(l.cur, e)
}

// chunks returns every chunk, in order, and the number of entries.
func (l *chunkLog[T]) chunks() ([][]T, int) {
	n := len(l.cur)
	for _, c := range l.full {
		n += len(c)
	}
	return append(l.full[:len(l.full):len(l.full)], l.cur), n
}

// Builder incrementally constructs a Graph from engine derivations. It is
// the paper's Algorithm 1, generalized with a Projection. Edges accumulate
// in an insertion-ordered log; Graph() runs a counting sort that lays the
// in-adjacency out in CSR form, preserving each node's insertion order, so
// walk results are unchanged by the layout.
//
// Each fired instantiation costs a few array and integer-keyed lookups:
// what the projection says about a rule (inclusion, label, weight, kept
// body positions) and the relations of its head and body atoms are
// resolved once per rule, fact nodes are memoized by the engine's identity
// for a fact (relation and tuple id), and the projection of a relation's
// predicate is computed once per relation. The graph's fact index behind
// Graph.FactID is consulted only the first time a relation yields a fact,
// which is also where adorned relations of one predicate (p_bf, p_fb under
// the Magic projection) merge into one fact node.
type Builder struct {
	proj      *Projection
	g         *Graph
	edges     chunkLog[edge]
	rels      map[*db.Relation]*relMemo
	ruleMemos []ruleMemo // per rule index, resolved on its first instantiation
	body      []NodeID   // the current instantiation's body nodes
	// Rule-node merging, for projections under which two instantiations
	// can project to one rule node (all three stay empty otherwise): rules
	// indexes the merged keys, hashed over label, head node and body
	// nodes, and merged key k is keys[keyOff[k]:keyOff[k+1]] (label, head,
	// body).
	rules     db.IDTable
	keys      []NodeID
	keyOff    []int32
	finalized bool
}

// relMemo is the builder's per-relation state: the projection of the
// relation's predicate and the fact node of every tuple id seen so far.
// Relations the build itself fills (idb relations) and relations the edb
// preload walks in full keep the memo in a slice indexed by tuple id; any
// other relation, such as a large edb relation a Magic^S RR subgraph shares
// with the input database, keeps it in a map, so the memo's cost follows
// the facts the build touches rather than the relation's length.
type relMemo struct {
	rel    *db.Relation
	drop   bool  // MapPred dropped the predicate (magic atoms)
	name   int32 // the projected predicate's index in Graph.names
	edb    bool
	ids    []NodeID              // tuple id -> node id + 1 (0: no node yet), if sparse is nil
	sparse map[db.TupleID]NodeID // tuple id -> node id, for relations the build does not fill
}

// ruleMemo is what the builder resolved about one rule on its first
// instantiation. head and body cache the memos of the relations the
// rule's atoms were drawn from; every later instantiation checks that it
// names the same relation before using the cached memo.
type ruleMemo struct {
	seen    bool
	include bool
	label   int32
	weight  float64
	keep    []int // KeepBody's positions; nil keeps all
	head    *relMemo
	body    []*relMemo
}

// NewBuilder returns a builder using proj.
func NewBuilder(proj *Projection) *Builder {
	return NewBuilderSized(proj, 0, 0)
}

// NewBuilderSized is NewBuilder with capacity hints: factHint pre-sizes the
// fact-node tables (e.g. the edb tuple count when preloading, or a previous
// run's engine.Stats.NewFacts), ruleHint the rule-node merge table of
// projections that need one (e.g. engine.Stats.Instantiations). Hints are
// optional; zero means unknown.
func NewBuilderSized(proj *Projection, factHint, ruleHint int) *Builder {
	factHint = max(factHint, 0)
	b := &Builder{
		proj: proj,
		g:    &Graph{nodes: make([]nodeRec, 0, factHint), nameIDs: make(map[string]int32)},
		rels: make(map[*db.Relation]*relMemo),
	}
	if !proj.distinctInstantiations {
		b.rules.Reserve(ruleHint)
		b.keyOff = append(make([]int32, 0, max(ruleHint, 0)+1), 0)
	}
	return b
}

// Graph finalizes the CSR adjacency and returns the graph. The builder must
// not observe further derivations afterwards, and the graph must not be
// handed to concurrent readers before this returns.
func (b *Builder) Graph() *Graph {
	b.finalize()
	return b.g
}

// AddFact ensures a node for the fact pred(t) (already projected) and
// returns its id.
func (b *Builder) AddFact(pred string, t db.Tuple, edb bool) NodeID {
	return b.factNode(b.intern(pred), edb, t)
}

// factNode returns the node of the projected fact names[name](t), adding
// one (and copying t into the graph's tuple storage) if absent.
func (b *Builder) factNode(name int32, edb bool, t db.Tuple) NodeID {
	g := b.g
	h := t.Hash(uint64(name))
	if b.finalized {
		if id, ok := g.facts.Find(h, g.isFact(name, t)); ok {
			return NodeID(id)
		}
		panic("wdgraph: fact added after Graph() finalized the CSR layout")
	}
	id, found := g.facts.FindOrAdd(h, int32(len(g.nodes)), g.isFact(name, t))
	if found {
		return NodeID(id)
	}
	g.nodes = append(grow(g.nodes, 1), nodeRec{kind: FactNode, name: name, edb: edb, off: int32(len(g.syms)), arity: int32(len(t))})
	g.w = append(grow(g.w, 1), 1)
	g.syms = append(grow(g.syms, len(t)), t...)
	return NodeID(id)
}

// intern returns the index of name in the graph's name table, adding it
// on first use.
func (b *Builder) intern(name string) int32 {
	g := b.g
	if i, ok := g.nameIDs[name]; ok {
		return i
	}
	i := int32(len(g.names))
	g.names = append(g.names, name)
	g.nameIDs[name] = i
	return i
}

// memo returns rel's memo, projecting its predicate on first use.
func (b *Builder) memo(rel *db.Relation) *relMemo {
	if m, ok := b.rels[rel]; ok {
		return m
	}
	m := &relMemo{rel: rel}
	if pred, edb, ok := b.proj.MapPred(rel.Name()); !ok {
		m.drop = true
	} else {
		m.name, m.edb = b.intern(pred), edb
		if edb {
			m.sparse = make(map[db.TupleID]NodeID)
		}
	}
	b.rels[rel] = m
	return m
}

// fact returns the node of the fact ref, adding it if absent; ok=false
// means the projection drops the fact's predicate. t, when non-nil, is the
// fact's tuple; a nil t is read from ref.Rel, which a pipelined run may be
// appending to, so callers pass the tuple for a new head.
func (b *Builder) fact(ref engine.FactRef, t db.Tuple) (NodeID, bool) {
	return b.factIn(b.memo(ref.Rel), ref, t)
}

// factIn is fact with ref.Rel's memo m already resolved.
func (b *Builder) factIn(m *relMemo, ref engine.FactRef, t db.Tuple) (NodeID, bool) {
	if m.drop {
		return 0, false
	}
	i := int(ref.ID)
	if m.sparse != nil {
		if id, ok := m.sparse[ref.ID]; ok {
			return id, true
		}
	} else if i < len(m.ids) && m.ids[i] != 0 {
		return m.ids[i] - 1, true
	}
	if t == nil {
		t = ref.Rel.Tuple(ref.ID)
	}
	id := b.factNode(m.name, m.edb, t)
	if m.sparse != nil {
		m.sparse[ref.ID] = id
	} else {
		for len(m.ids) <= i {
			m.ids = append(m.ids, 0)
		}
		m.ids[i] = id + 1
	}
	return id, true
}

// PreloadEDB adds a node for every tuple of every edb relation of prog
// present in database, matching Definition 3.1's "a distinct node per each
// edb in D". NaiveCM uses this; the Magic variants deliberately do not.
func (b *Builder) PreloadEDB(prog *ast.Program, database *db.Database) {
	for _, pred := range prog.EDBs() {
		rel, ok := database.Lookup(pred)
		if !ok {
			continue
		}
		m := b.memo(rel)
		if m.drop {
			continue
		}
		if len(m.sparse) == 0 {
			m.sparse = nil // the walk below touches every tuple id
		}
		for i := 0; i < rel.Len(); i++ {
			b.fact(engine.FactRef{Rel: rel, ID: db.TupleID(i)}, nil)
		}
	}
}

// Listener returns the engine.DerivationListener that feeds this builder.
// The builder is not safe for concurrent use and relies on the engine's
// listener contract: derivations arrive on the goroutine that called
// engine.Run, in an order that is byte-identical at every
// engine.Options.Parallelism level, so node and edge ids are reproducible
// regardless of how the fixpoint was evaluated. It also keeps the
// contract's rule for pipelined runs: a new head's node is made from
// Derivation.HeadTuple, and a derived body fact is always a head it has
// already seen, so the builder reads tuples only of relations the run
// never writes (the edb) while the fixpoint runs beside it.
func (b *Builder) Listener() engine.DerivationListener {
	return func(d engine.Derivation) { b.observe(d) }
}

// rule returns the memo of rule i, whose instantiations have bodyLen
// atoms, resolving the projection's verdicts on its first use.
func (b *Builder) rule(i, bodyLen int) *ruleMemo {
	if i >= len(b.ruleMemos) {
		b.ruleMemos = append(b.ruleMemos, make([]ruleMemo, i+1-len(b.ruleMemos))...)
	}
	rm := &b.ruleMemos[i]
	if !rm.seen {
		rm.seen = true
		rm.include = b.proj.IncludeRule(i)
		if rm.include {
			rm.label = b.intern(b.proj.RuleLabel(i))
			rm.weight = b.proj.RuleWeight(i)
			rm.keep = b.proj.KeepBody(i)
			rm.body = make([]*relMemo, bodyLen)
		}
	}
	return rm
}

// memoAt returns rel's memo through the rule memo's cached slot, which it
// refills when it holds another relation's.
func (b *Builder) memoAt(slot **relMemo, rel *db.Relation) *relMemo {
	if m := *slot; m != nil && m.rel == rel {
		return m
	}
	*slot = b.memo(rel)
	return *slot
}

func (b *Builder) observe(d engine.Derivation) {
	rm := b.rule(d.RuleIndex, len(d.Body))
	if !rm.include {
		return
	}
	headID, ok := b.factIn(b.memoAt(&rm.head, d.Head.Rel), d.Head, d.HeadTuple)
	if !ok {
		return
	}
	body := b.body[:0]
	if rm.keep == nil {
		for j, ref := range d.Body {
			if id, ok := b.factIn(b.memoAt(&rm.body[j], ref.Rel), ref, nil); ok {
				body = append(body, id)
			}
		}
	} else {
		for _, pos := range rm.keep {
			ref := d.Body[pos]
			if id, ok := b.factIn(b.memoAt(&rm.body[pos], ref.Rel), ref, nil); ok {
				body = append(body, id)
			}
		}
	}
	b.body = body

	if !b.proj.distinctInstantiations {
		// Merge key: label, head node, body nodes. Two adorned versions of
		// one origin rule instantiation produce identical keys and merge.
		h := db.HashIDs(uint64(rm.label)<<32|uint64(uint32(headID)), body)
		k := int32(len(b.keyOff) - 1)
		if _, seen := b.rules.FindOrAdd(h, k, b.isRuleKey(rm.label, headID, body)); seen {
			return
		}
		b.keys = append(append(b.keys, NodeID(rm.label), headID), body...)
		b.keyOff = append(b.keyOff, int32(len(b.keys)))
	}
	if b.finalized {
		panic("wdgraph: derivation observed after Graph() finalized the CSR layout")
	}
	ruleID := NodeID(len(b.g.nodes))
	b.g.nodes = append(grow(b.g.nodes, 1), nodeRec{kind: RuleNode, name: rm.label})
	b.g.w = append(grow(b.g.w, 1), rm.weight)

	// body -> rule edges, then rule -> head.
	for _, id := range body {
		b.edges.add(edge{to: ruleID, from: id})
	}
	b.edges.add(edge{to: headID, from: ruleID})
}

// grow returns s with room for n more elements, at least doubling the
// capacity of a slice without it. The node table and tuple storage of a
// full WD graph reach hundreds of thousands of entries, where append's
// 1.25x step for large slices would allocate and copy several times their
// final size.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return slices.Grow(s, max(len(s), n, 16))
}

// isRuleKey returns the test of whether merged rule node k has the key
// (label, head, body).
func (b *Builder) isRuleKey(label int32, head NodeID, body []NodeID) func(k int32) bool {
	return func(k int32) bool {
		key := b.keys[b.keyOff[k]:b.keyOff[k+1]]
		return key[0] == NodeID(label) && key[1] == head && slices.Equal(key[2:], body)
	}
}

// finalize lays the edge log out as the CSR in-adjacency. Idempotent.
func (b *Builder) finalize() {
	if b.finalized {
		return
	}
	b.finalized = true
	chunks, m := b.edges.chunks()
	b.g.inOff, b.g.inTo = csr(len(b.g.nodes), m, chunks)
	b.edges = chunkLog[edge]{}
}

// csr counting-sorts m edges over n nodes into CSR form: per node, the
// offsets of its in-edges and their sources. The sort is stable: each
// node's in-edges keep their order in chunks, which for the builder's log
// is the order it added them in, the order the walkers draw in.
func csr(n, m int, chunks [][]edge) (off []int32, from []NodeID) {
	// Count each node's in-edges into off[v+1] and sum the counts up, so
	// that off[v] is v's first slot; filling then uses off[v] as v's
	// cursor, which leaves it at v's end, and a shift restores the starts.
	off = make([]int32, n+1)
	for _, c := range chunks {
		for _, e := range c {
			off[e.to+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	from = make([]NodeID, m)
	for _, c := range chunks {
		for _, e := range c {
			from[off[e.to]] = e.from
			off[e.to]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	return off, from
}

// BuildConfig parameterizes Build beyond the program and database. The
// zero value evaluates sequentially, without cancellation, plan sharing or
// observability.
type BuildConfig struct {
	// Ctx, when non-nil, cancels the underlying fixpoint evaluation
	// between rounds.
	Ctx context.Context
	// Parallelism is forwarded to engine.Options.Parallelism: >= 2 runs
	// the fixpoint on a helper goroutine while the builder consumes its
	// derivations on the calling one, so graph construction overlaps the
	// joins and inserts. The stream reaching the builder is byte-identical
	// to sequential evaluation, so the constructed graph (node and edge ids
	// included) is the same at every level.
	Parallelism int
	// Planner, when non-nil, is the plan cache rule compilation shares
	// with other builds (engine.NewPlanned); nil plans this build's rules
	// without caching.
	Planner *planner.Planner
	// Instr, when non-nil, records the construction (wdgraph.* metrics and
	// one graph.build event, see instr.GraphBuilt) and is forwarded to the
	// engine for its fixpoint. It never changes the constructed graph.
	Instr *instr.Instr
}

// Build evaluates prog over database and returns its full WD graph
// (Definition 3.1): the identity projection, with a node for every edb
// fact added up front. Projected or sampled graphs (the Magic solvers')
// are built through NewBuilder and the engine directly.
func Build(prog *ast.Program, database *db.Database, cfg BuildConfig) (*Graph, engine.Stats, error) {
	start := time.Now()
	factHint := 0
	for _, pred := range prog.EDBs() {
		if rel, ok := database.Lookup(pred); ok {
			factHint += rel.Len()
		}
	}
	b := NewBuilderSized(IdentityProjection(prog), factHint, 0)
	b.PreloadEDB(prog, database)
	eng, err := engine.NewPlanned(prog, database, cfg.Planner)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	stats, err := eng.Run(engine.Options{Listener: b.Listener(), Context: cfg.Ctx, Parallelism: cfg.Parallelism, Instr: cfg.Instr})
	if err != nil {
		return nil, stats, err
	}
	g := b.Graph()
	cfg.Instr.GraphBuilt(g.NumNodes(), g.NumEdges(), start)
	return g, stats, nil
}

// DebugString renders a small graph for tests and the wddump tool.
func (g *Graph) DebugString(symbols *db.SymbolTable) string {
	var sb strings.Builder
	for i := range g.nodes {
		n := g.Node(NodeID(i))
		sb.WriteString(strconv.Itoa(i))
		sb.WriteString(": ")
		if n.Kind == RuleNode {
			sb.WriteString("[rule ")
			sb.WriteString(n.Pred)
			sb.WriteString("]")
		} else {
			sb.WriteString(n.Pred)
			sb.WriteByte('(')
			for j, s := range n.Tuple {
				if j > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(symbols.Name(s))
			}
			sb.WriteByte(')')
			if n.EDB {
				sb.WriteString(" edb")
			}
		}
		sb.WriteString(" ->")
		for _, to := range g.OutEdges(NodeID(i)) {
			sb.WriteByte(' ')
			sb.WriteString(strconv.Itoa(int(to)))
			sb.WriteString("@")
			sb.WriteString(strconv.FormatFloat(g.w[i], 'g', -1, 64))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
