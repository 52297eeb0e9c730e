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
// Graphs are stored in compressed-sparse-row (CSR) form: one flat array of
// in-edge sources indexed by a per-node offset array, and one weight per
// node. Every edge carries its source's weight (w(r) out of an
// instantiation of r, 1 out of a fact), so the in-edges of a node are all
// a reverse walk reads: adjacent edges are adjacent in memory, and the
// sampled reachability walks — the hot loop of every RIS-based CM
// algorithm — stream through contiguous arrays. The out-adjacency, which
// only forward walks and renderings read, is the transpose, built on first
// use. See docs/PERFORMANCE.md for the layout contract.
package wdgraph

import (
	"sync"

	"contribmax/internal/db"
)

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

// Graph is a WD graph in CSR layout. Build one with a Builder (the builder's
// Graph method finalizes the CSR arrays). Graphs are immutable after
// building and safe for concurrent reads; the one state built after that,
// the out-adjacency, is built once under a sync.Once.
type Graph struct {
	nodes []nodeRec
	syms  []db.Sym // fact tuples, back to back
	names []string // predicates and rule labels, interned

	// w[v] is the weight of every out-edge of v: w(r) for an
	// instantiation of rule r, 1 for a fact.
	w []float64

	// In-adjacency: the in-edges of node v come from inTo[inOff[v]:
	// inOff[v+1]], in the order the builder added them. The walkers
	// consume random numbers in this order, so it is part of every pinned
	// result.
	inTo  []NodeID
	inOff []int32

	// Out-adjacency, the same layout, transposed from the in-adjacency by
	// the first reader that needs it (see out).
	outOnce sync.Once
	outTo   []NodeID
	outOff  []int32

	// nameIDs inverts names. facts indexes the fact nodes, hashed over
	// their name index and tuple, so a fact's node is found without a key
	// string.
	nameIDs map[string]int32
	facts   db.IDTable
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.inTo) }

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

// Weight returns the weight of every out-edge of v: the rule's probability
// w(r) for an instantiation of r, and 1 for a fact.
func (g *Graph) Weight(v NodeID) float64 { return g.w[v] }

// InEdges returns the sources of v's in-edges. The slice aliases the
// graph's CSR arrays; callers must not modify it.
func (g *Graph) InEdges(v NodeID) []NodeID { return g.inTo[g.inOff[v]:g.inOff[v+1]] }

// OutEdges returns the targets of u's out-edges, in the order the builder
// added them. The slice aliases the graph's CSR arrays; callers must not
// modify it.
func (g *Graph) OutEdges(u NodeID) []NodeID {
	off, to := g.out()
	return to[off[u]:off[u+1]]
}

// InDegree returns the number of in-edges of v.
func (g *Graph) InDegree(v NodeID) int { return int(g.inOff[v+1] - g.inOff[v]) }

// OutDegree returns the number of out-edges of u.
func (g *Graph) OutDegree(u NodeID) int {
	off, _ := g.out()
	return int(off[u+1] - off[u])
}

// out returns the out-adjacency's offsets and targets, transposing the
// in-adjacency on first use. Only forward walks (the Monte-Carlo
// estimator), the provenance passes and the renderings read out-edges; RR
// walks and solves read in-edges alone, so most graphs never build it.
func (g *Graph) out() ([]int32, []NodeID) {
	g.outOnce.Do(g.transpose)
	return g.outOff, g.outTo
}

// transpose lays the out-adjacency out as the in-adjacency of the reversed
// edges, read in target order. Each node's out-edges then come in target
// order, which is the order the builder added them in: a fact's out-edges
// lead to instantiations, numbered as they were made, and an instantiation
// has one out-edge.
func (g *Graph) transpose() {
	reversed := make([]edge, 0, len(g.inTo))
	for v := range g.nodes {
		for _, u := range g.InEdges(NodeID(v)) {
			reversed = append(reversed, edge{to: u, from: NodeID(v)})
		}
	}
	g.outOff, g.outTo = csr(len(g.nodes), len(reversed), [][]edge{reversed})
}

// MemoryBytes estimates the resident size of the in-adjacency and the
// weights (the node table excluded). It leaves out the out-adjacency,
// which no solve builds, so a cached graph never holds it.
func (g *Graph) MemoryBytes() int64 {
	const nodeIDSize, weightSize, offSize = 4, 8, 4
	return int64(len(g.inTo))*nodeIDSize + int64(len(g.inOff))*offSize + int64(len(g.w))*weightSize
}

// FactNodes calls fn for every fact node.
func (g *Graph) FactNodes(fn func(id NodeID, n Node)) {
	for i, r := range g.nodes {
		if r.kind == FactNode {
			fn(NodeID(i), g.Node(NodeID(i)))
		}
	}
}
