// Package wdgraph implements the Weighted Derivation (WD) graph of
// Definition 3.1: a directed weighted graph with one node per edb fact, per
// derived idb fact, and per rule instantiation; every instantiation node
// has weight-1 in-edges from its body facts and one out-edge, weighted by
// the rule's probability, to its head fact.
//
// The package also implements the random-subgraph semantics of Definition
// 3.4: reverse reachability walks that draw each edge independently with
// its weight (used for RR-set generation in the RIS framework) and forward
// sampling (used by the Monte-Carlo contribution estimator).
//
// Graphs are stored in compressed-sparse-row (CSR) form: one flat endpoint
// array and one flat weight array per direction, indexed by per-node offset
// arrays. Adjacent edges of a node are adjacent in memory, so the sampled
// reachability walks — the hot loop of every RIS-based CM algorithm —
// stream through contiguous arrays instead of chasing one heap-allocated
// edge slice per node. See docs/PERFORMANCE.md for the layout contract.
package wdgraph

import "contribmax/internal/db"

// NodeID indexes a node of a Graph.
type NodeID int32

// NodeKind discriminates fact nodes from rule-instantiation nodes.
type NodeKind uint8

const (
	// FactNode is an edb or idb fact.
	FactNode NodeKind = iota
	// RuleNode is a rule instantiation r(inst).
	RuleNode
)

// Node is one WD-graph node.
type Node struct {
	Kind NodeKind
	// Pred and Tuple identify a fact node. For rule nodes Pred holds the
	// rule label and Tuple is nil.
	Pred  string
	Tuple db.Tuple
	// EDB marks fact nodes of extensional relations (candidate seeds live
	// among these).
	EDB bool
}

// nodeRec is the stored form of a node. It holds no pointers, so the node
// table costs the garbage collector nothing to scan, and a graph holds no
// reference into the database its facts came from. name indexes
// Graph.names (a fact's predicate or a rule node's label); a fact's tuple
// is syms[off : off+arity].
type nodeRec struct {
	name  int32
	off   int32
	arity int32
	kind  NodeKind
	edb   bool
}

// Edges is a view of one node's incident edges in one direction: To[i] is
// the i-th neighbor and W[i] the i-th edge weight. Both slices alias the
// graph's CSR arrays; callers must not modify them.
type Edges struct {
	To []NodeID
	W  []float64
}

// Len returns the number of edges in the view.
func (e Edges) Len() int { return len(e.To) }

// Graph is a WD graph in CSR layout. Build one with a Builder (the builder's
// Graph method finalizes the CSR arrays). Graphs are immutable after
// building and safe for concurrent reads.
type Graph struct {
	nodes []nodeRec
	syms  []db.Sym // fact tuples, back to back
	names []string // predicates and rule labels, interned

	// In-adjacency: the in-edges of node v are inTo[inOff[v]:inOff[v+1]]
	// with weights inW at the same indexes. inDet[v] is the end (absolute
	// index into inTo/inW) of v's leading run of weight-1 in-edges: the
	// reverse walker crosses edges in [inOff[v], inDet[v]) without touching
	// the weight array or the RNG, which covers every in-edge of every rule
	// node (body→rule edges always have weight 1) and the deterministic
	// prefix of fact nodes. Only the leading run is segregated — physically
	// reordering weighted edges would change the walker's RNG consumption
	// order and break byte-identical replay of pinned seeds.
	inTo  []NodeID
	inW   []float64
	inOff []int32
	inDet []int32

	// Out-adjacency, same layout (outDet covers fact→rule edges, which
	// always have weight 1).
	outTo  []NodeID
	outW   []float64
	outOff []int32
	outDet []int32

	// nameIDs inverts names. facts indexes the fact nodes, hashed over
	// their name index and tuple, so a fact's node is found without a key
	// string.
	nameIDs map[string]int32
	facts   db.IDTable
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.outTo) }

// Size returns nodes + edges, the quantity the paper reports as the graph's
// memory footprint.
func (g *Graph) Size() int { return g.NumNodes() + g.NumEdges() }

// Node returns the node with the given id. A fact node's Tuple aliases the
// graph's tuple storage (capped, so appending to it copies); callers must
// not modify it.
func (g *Graph) Node(id NodeID) Node {
	r := g.nodes[id]
	n := Node{Kind: r.kind, Pred: g.names[r.name], EDB: r.edb}
	if r.kind == FactNode {
		end := r.off + r.arity
		n.Tuple = g.syms[r.off:end:end]
	}
	return n
}

// FactID returns the node id of the fact pred(tuple) and whether it exists.
// It reads only, so concurrent readers of a finalized graph may call it.
func (g *Graph) FactID(pred string, t db.Tuple) (NodeID, bool) {
	name, ok := g.nameIDs[pred]
	if !ok {
		return 0, false
	}
	id, ok := g.facts.Find(t.Hash(uint64(name)), g.isFact(name, t))
	return NodeID(id), ok
}

// isFact returns the test of whether fact node id is names[name](t).
func (g *Graph) isFact(name int32, t db.Tuple) func(id int32) bool {
	return func(id int32) bool {
		r := g.nodes[id]
		return r.name == name && db.Tuple(g.syms[r.off:r.off+r.arity]).Equal(t)
	}
}

// InEdges returns the in-edges of v: To[i] is the i-th source node. The
// views alias internal CSR arrays; callers must not modify them.
func (g *Graph) InEdges(v NodeID) Edges {
	lo, hi := g.inOff[v], g.inOff[v+1]
	return Edges{To: g.inTo[lo:hi], W: g.inW[lo:hi]}
}

// OutEdges returns the out-edges of u: To[i] is the i-th destination node.
// The views alias internal CSR arrays; callers must not modify them.
func (g *Graph) OutEdges(u NodeID) Edges {
	lo, hi := g.outOff[u], g.outOff[u+1]
	return Edges{To: g.outTo[lo:hi], W: g.outW[lo:hi]}
}

// InDegree returns the number of in-edges of v without materializing a view.
func (g *Graph) InDegree(v NodeID) int { return int(g.inOff[v+1] - g.inOff[v]) }

// OutDegree returns the number of out-edges of u without materializing a
// view.
func (g *Graph) OutDegree(u NodeID) int { return int(g.outOff[u+1] - g.outOff[u]) }

// MemoryBytes estimates the resident size of the CSR arrays (nodes
// excluded): endpoint, weight, offset, and deterministic-prefix arrays for
// both directions.
func (g *Graph) MemoryBytes() int64 {
	const nodeIDSize, weightSize, offSize = 4, 8, 4
	edges := int64(len(g.inTo) + len(g.outTo))
	offs := int64(len(g.inOff) + len(g.outOff) + len(g.inDet) + len(g.outDet))
	return edges*(nodeIDSize+weightSize) + offs*offSize
}

// FactNodes calls fn for every fact node.
func (g *Graph) FactNodes(fn func(id NodeID, n Node)) {
	for i, r := range g.nodes {
		if r.kind == FactNode {
			fn(NodeID(i), g.Node(NodeID(i)))
		}
	}
}
