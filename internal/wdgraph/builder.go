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
	// RuleWeight returns the probability w(r) put on the instantiation's
	// out-edge.
	RuleWeight func(ruleIndex int) float64
	// MapPred maps a predicate to the name recorded on fact nodes and
	// reports whether facts of that predicate are edb. ok=false drops the
	// fact (used for magic predicates in rule bodies).
	MapPred func(pred string) (mapped string, edb bool, ok bool)
	// KeepBody returns the body positions of rule i that carry original
	// (non-magic) atoms; nil keeps all positions.
	KeepBody func(ruleIndex int) []int

	// distinctInstantiations records that no two fired instantiations can
	// project to the same rule node, so the builder skips its dedup map.
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

// rawEdge is one directed edge recorded during construction, before the
// finalize step lays the adjacency out in CSR form.
type rawEdge struct {
	from, to NodeID
	w        float64
}

// Builder incrementally constructs a Graph from engine derivations. It is
// the paper's Algorithm 1, generalized with a Projection. Edges accumulate
// in a flat insertion-ordered log; Graph() runs a counting sort that lays
// both adjacency directions out in CSR form, preserving per-node insertion
// order (the order the old per-node slices grew in), so walk results are
// unchanged by the layout.
//
// Each fired instantiation costs a few array and integer-keyed lookups:
// fact nodes are memoized by the engine's identity for a fact (relation and
// tuple id), the projection of a relation's predicate is computed once per
// relation, and a rule's label once per rule. The string-keyed fact index
// behind Graph.FactID is consulted only the first time a relation yields a
// fact, which is also where adorned relations of one predicate (p_bf, p_fb
// under the Magic projection) merge into one fact node.
type Builder struct {
	proj      *Projection
	g         *Graph
	edges     []rawEdge
	names     map[string]int32 // interned name -> index into g.names
	rels      map[*db.Relation]*relMemo
	labels    []int32           // rule index -> interned label + 1 (0: not seen yet)
	rules     map[string]NodeID // instantiation dedup key -> node; nil if nothing can merge
	body      []NodeID          // the current instantiation's body nodes
	keyBuf    []byte            // reusable key scratch
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
	drop   bool   // MapPred dropped the predicate (magic atoms)
	pred   string // projected predicate
	name   int32  // its index in Graph.names
	edb    bool
	ids    []NodeID              // tuple id -> node id + 1 (0: no node yet), if sparse is nil
	sparse map[db.TupleID]NodeID // tuple id -> node id, for relations the build does not fill
}

// NewBuilder returns a builder using proj.
func NewBuilder(proj *Projection) *Builder {
	return NewBuilderSized(proj, 0, 0)
}

// NewBuilderSized is NewBuilder with capacity hints: factHint pre-sizes the
// fact-node tables (e.g. the edb tuple count when preloading, or a previous
// run's engine.Stats.NewFacts), ruleHint the instantiation-dedup map of
// projections that need one (e.g. engine.Stats.Instantiations). Hints are
// optional; zero means unknown.
func NewBuilderSized(proj *Projection, factHint, ruleHint int) *Builder {
	factHint = max(factHint, 0)
	b := &Builder{
		proj:  proj,
		g:     &Graph{nodes: make([]nodeRec, 0, factHint), factIDs: make(map[string]NodeID, factHint)},
		names: make(map[string]int32),
		rels:  make(map[*db.Relation]*relMemo),
	}
	if !proj.distinctInstantiations {
		b.rules = make(map[string]NodeID, max(ruleHint, 0))
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
	return b.factNode(pred, b.intern(pred), edb, t)
}

// factNode returns the node of the projected fact pred(t), adding one (and
// copying t into the graph's tuple storage) if absent. name is pred's
// interned index.
func (b *Builder) factNode(pred string, name int32, edb bool, t db.Tuple) NodeID {
	g := b.g
	b.keyBuf = appendFactKey(b.keyBuf[:0], pred, t)
	if id, ok := g.factIDs[string(b.keyBuf)]; ok {
		return id
	}
	if b.finalized {
		panic("wdgraph: fact added after Graph() finalized the CSR layout")
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(grow(g.nodes), nodeRec{kind: FactNode, name: name, edb: edb, off: int32(len(g.syms)), arity: int32(len(t))})
	g.syms = append(g.syms, t...)
	g.factIDs[string(b.keyBuf)] = id
	return id
}

// intern returns the index of name in the graph's name table, adding it
// on first use.
func (b *Builder) intern(name string) int32 {
	if i, ok := b.names[name]; ok {
		return i
	}
	i := int32(len(b.g.names))
	b.g.names = append(b.g.names, name)
	b.names[name] = i
	return i
}

// memo returns rel's memo, projecting its predicate on first use.
func (b *Builder) memo(rel *db.Relation) *relMemo {
	if m, ok := b.rels[rel]; ok {
		return m
	}
	m := &relMemo{}
	if pred, edb, ok := b.proj.MapPred(rel.Name()); !ok {
		m.drop = true
	} else {
		m.pred, m.name, m.edb = pred, b.intern(pred), edb
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
	m := b.memo(ref.Rel)
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
	id := b.factNode(m.pred, m.name, m.edb, t)
	if m.sparse != nil {
		m.sparse[ref.ID] = id
	} else {
		if i >= len(m.ids) {
			m.ids = append(m.ids, make([]NodeID, i+1-len(m.ids))...)
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

// label returns the interned label of rule i.
func (b *Builder) label(i int) int32 {
	if i >= len(b.labels) {
		b.labels = append(b.labels, make([]int32, i+1-len(b.labels))...)
	}
	if l := b.labels[i]; l != 0 {
		return l - 1
	}
	l := b.intern(b.proj.RuleLabel(i))
	b.labels[i] = l + 1
	return l
}

func (b *Builder) observe(d engine.Derivation) {
	if !b.proj.IncludeRule(d.RuleIndex) {
		return
	}
	headID, ok := b.fact(d.Head, d.HeadTuple)
	if !ok {
		return
	}
	body := b.body[:0]
	if keep := b.proj.KeepBody(d.RuleIndex); keep == nil {
		for _, ref := range d.Body {
			if id, ok := b.fact(ref, nil); ok {
				body = append(body, id)
			}
		}
	} else {
		for _, pos := range keep {
			if id, ok := b.fact(d.Body[pos], nil); ok {
				body = append(body, id)
			}
		}
	}
	b.body = body
	label := b.label(d.RuleIndex)

	if b.rules != nil {
		// Dedup key: label, head node, body nodes. Two adorned versions of
		// one origin rule instantiation produce identical keys and merge.
		// The lookup converts the reusable buffer without allocating, so
		// only genuinely new instantiations pay a key allocation (on
		// insert).
		buf := appendNodeID(append(b.keyBuf[:0], b.g.names[label]...), headID)
		for _, id := range body {
			buf = appendNodeID(buf, id)
		}
		b.keyBuf = buf
		if _, seen := b.rules[string(buf)]; seen {
			return
		}
	}
	if b.finalized {
		panic("wdgraph: derivation observed after Graph() finalized the CSR layout")
	}
	ruleID := NodeID(len(b.g.nodes))
	b.g.nodes = append(grow(b.g.nodes), nodeRec{kind: RuleNode, name: label})
	if b.rules != nil {
		b.rules[string(b.keyBuf)] = ruleID
	}

	// body -> rule edges, weight 1; then rule -> head, weight w(r).
	for _, id := range body {
		b.edges = append(grow(b.edges), rawEdge{from: id, to: ruleID, w: 1})
	}
	b.edges = append(grow(b.edges), rawEdge{from: ruleID, to: headID, w: b.proj.RuleWeight(d.RuleIndex)})
}

// grow returns s with room for one more element, doubling the capacity of
// a full slice. The node table and edge log of a full WD graph reach
// hundreds of thousands of entries, where append's 1.25x step for large
// slices would allocate and copy several times their final size.
func grow[T any](s []T) []T {
	if len(s) < cap(s) {
		return s
	}
	return slices.Grow(s, max(len(s), 16))
}

func appendNodeID(dst []byte, id NodeID) []byte {
	return append(dst, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
}

// finalize lays the accumulated edge log out as CSR adjacency in both
// directions. The counting sort is stable with respect to the log, so each
// node's edge order equals its append order under the old per-node-slice
// layout — a prerequisite for reproducing pre-CSR walk results byte for
// byte. Idempotent.
func (b *Builder) finalize() {
	if b.finalized {
		return
	}
	b.finalized = true
	g := b.g
	n := len(g.nodes)
	m := len(b.edges)

	inDeg := make([]int32, n)
	outDeg := make([]int32, n)
	for _, e := range b.edges {
		outDeg[e.from]++
		inDeg[e.to]++
	}

	g.inOff = make([]int32, n+1)
	g.outOff = make([]int32, n+1)
	for i := 0; i < n; i++ {
		g.inOff[i+1] = g.inOff[i] + inDeg[i]
		g.outOff[i+1] = g.outOff[i] + outDeg[i]
	}

	g.inTo = make([]NodeID, m)
	g.inW = make([]float64, m)
	g.outTo = make([]NodeID, m)
	g.outW = make([]float64, m)
	// Reuse the degree arrays as placement cursors.
	copy(inDeg, g.inOff[:n])
	copy(outDeg, g.outOff[:n])
	for _, e := range b.edges {
		oi := outDeg[e.from]
		g.outTo[oi], g.outW[oi] = e.to, e.w
		outDeg[e.from] = oi + 1
		ii := inDeg[e.to]
		g.inTo[ii], g.inW[ii] = e.from, e.w
		inDeg[e.to] = ii + 1
	}
	b.edges = nil

	g.inDet = detPrefixes(g.inOff, g.inW)
	g.outDet = detPrefixes(g.outOff, g.outW)
}

// detPrefixes computes, per node, the absolute end index of the leading run
// of weight-1 edges (the walker's no-RNG fast path).
func detPrefixes(off []int32, w []float64) []int32 {
	n := len(off) - 1
	det := make([]int32, n)
	for v := 0; v < n; v++ {
		end := off[v+1]
		i := off[v]
		for i < end && w[i] == 1 {
			i++
		}
		det[v] = i
	}
	return det
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
		es := g.OutEdges(NodeID(i))
		for j, to := range es.To {
			sb.WriteByte(' ')
			sb.WriteString(strconv.Itoa(int(to)))
			sb.WriteString("@")
			sb.WriteString(strconv.FormatFloat(es.W[j], 'g', -1, 64))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
