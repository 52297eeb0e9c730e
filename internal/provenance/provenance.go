// Package provenance extracts derivation trees — the paper's Section II
// notion — from WD graphs. The headline operation is the most probable
// derivation tree of a tuple: the tree maximizing the product of its rule
// instantiations' probabilities, computed with Knuth's generalization of
// Dijkstra's algorithm to directed hypergraphs (each rule instantiation is
// a hyperedge from its body facts to its head).
//
// CM (internal/cm) answers "which inputs matter most for these outputs";
// this package answers the complementary question "show me how this output
// was derived", which the paper's related-work section attributes to
// selective provenance systems.
package provenance

import (
	"container/heap"
	"fmt"
	"strings"

	"contribmax/internal/db"
	"contribmax/internal/wdgraph"
)

// Tree is a derivation tree. Leaves are edb facts (Rule == "", Prob == 1);
// internal nodes record the rule instantiation deriving the fact from the
// children and the probability of the whole subtree.
type Tree struct {
	// Pred and Tuple identify the fact at this node.
	Pred  string
	Tuple db.Tuple
	// Rule is the label of the rule instantiation deriving the fact; empty
	// for edb leaves.
	Rule string
	// Prob is the product of the subtree's rule-instantiation weights,
	// counted per occurrence. When the tree shares no sub-derivations this
	// is exactly the probability that every instantiation in it fires;
	// with shared sub-derivations it is a lower bound (the shared part is
	// double-counted).
	Prob float64
	// Children are the derivations of the instantiation's body facts.
	Children []*Tree
}

// Render returns an indented multi-line rendering of the tree.
func (t *Tree) Render(symbols *db.SymbolTable) string {
	var sb strings.Builder
	t.render(&sb, symbols, 0)
	return sb.String()
}

func (t *Tree) render(sb *strings.Builder, symbols *db.SymbolTable, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(factString(t.Pred, t.Tuple, symbols))
	if t.Rule != "" {
		fmt.Fprintf(sb, "   [%s, p=%.3g]", t.Rule, t.Prob)
	}
	sb.WriteByte('\n')
	for _, c := range t.Children {
		c.render(sb, symbols, depth+1)
	}
}

// Size returns the number of fact nodes in the tree.
func (t *Tree) Size() int {
	n := 1
	for _, c := range t.Children {
		n += c.Size()
	}
	return n
}

func factString(pred string, tuple db.Tuple, symbols *db.SymbolTable) string {
	var sb strings.Builder
	sb.WriteString(pred)
	sb.WriteByte('(')
	for i, s := range tuple {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(symbols.Name(s))
	}
	sb.WriteByte(')')
	return sb.String()
}

// BestDerivation returns the most probable derivation tree of the fact at
// node root in g, and false if root has no derivation grounded in edb
// facts. The score of a tree is the product of the weights of its rule
// instantiations (per occurrence); edb leaves score 1.
//
// The computation is Knuth's algorithm: process facts in decreasing best
// achievable score; a rule instantiation becomes available once all its
// body facts are finalized, offering w(r)·Π(body scores) to its head.
// Scores lie in (0, 1] and multiplication by a weight ≤ 1 never increases
// them, so the greedy finalization order is optimal, and cycles in the WD
// graph are handled for free (a derivation through a cycle can never beat
// the acyclic one that finalized the fact).
func BestDerivation(g *wdgraph.Graph, root wdgraph.NodeID) (*Tree, bool) {
	sc := computeScores(g)
	if !sc.final[root] {
		return nil, false
	}
	return buildTree(g, root, sc.score, sc.bestRule), true
}

// scores holds the Knuth-pass results: per fact node, the best achievable
// derivation score and the arg-max rule node.
type scores struct {
	score    []float64
	final    []bool
	bestRule []int32
}

// computeScores runs the Knuth pass to completion (all derivable facts
// finalized).
func computeScores(g *wdgraph.Graph) scores {
	n := g.NumNodes()
	sc := scores{
		score:    make([]float64, n),
		final:    make([]bool, n),
		bestRule: make([]int32, n),
	}
	pending := make([]int32, n) // per rule node: #unfinalized bodies
	ruleOffer := make([]float64, n)
	for i := range sc.bestRule {
		sc.bestRule[i] = -1
	}

	pq := &scoreHeap{}
	heap.Init(pq)

	// Seed: edb leaves score 1. Rule nodes count their body facts.
	for i := 0; i < n; i++ {
		id := wdgraph.NodeID(i)
		node := g.Node(id)
		switch node.Kind {
		case wdgraph.FactNode:
			if node.EDB {
				heap.Push(pq, scored{id: id, score: 1, rule: -1})
			}
		case wdgraph.RuleNode:
			pending[i] = int32(g.InDegree(id))
			ruleOffer[i] = g.Weight(id)
			if pending[i] == 0 {
				// A rule with no (kept) body atoms derives its head
				// unconditionally with probability w(r).
				offerHead(g, pq, id, ruleOffer[i])
			}
		}
	}

	for pq.Len() > 0 {
		top := heap.Pop(pq).(scored)
		i := int(top.id)
		if sc.final[i] {
			continue
		}
		sc.final[i] = true
		sc.score[i] = top.score
		sc.bestRule[i] = top.rule
		// Relax the rule nodes consuming this fact.
		for _, to := range g.OutEdges(top.id) {
			ri := int(to)
			if g.Node(to).Kind != wdgraph.RuleNode {
				continue
			}
			ruleOffer[ri] *= top.score
			pending[ri]--
			if pending[ri] == 0 {
				offerHead(g, pq, to, ruleOffer[ri])
			}
		}
	}
	return sc
}

// offerHead pushes the head of rule node r, its one out-edge's target
// (Definition 3.1), with the given offered score.
func offerHead(g *wdgraph.Graph, pq *scoreHeap, r wdgraph.NodeID, offer float64) {
	heap.Push(pq, scored{id: g.OutEdges(r)[0], score: offer, rule: int32(r)})
}

func buildTree(g *wdgraph.Graph, id wdgraph.NodeID, score []float64, bestRule []int32) *Tree {
	node := g.Node(id)
	t := &Tree{Pred: node.Pred, Tuple: node.Tuple, Prob: score[id]}
	r := bestRule[id]
	if r < 0 {
		return t // edb leaf
	}
	ruleID := wdgraph.NodeID(r)
	t.Rule = g.Node(ruleID).Pred
	for _, u := range g.InEdges(ruleID) {
		t.Children = append(t.Children, buildTree(g, u, score, bestRule))
	}
	return t
}

// Support returns the edb facts in the backward closure of root: every
// input fact that participates in some derivation of the fact.
func Support(g *wdgraph.Graph, root wdgraph.NodeID) []wdgraph.NodeID {
	var out []wdgraph.NodeID
	w := wdgraph.NewWalker(g)
	w.ReverseClosure(root, func(v wdgraph.NodeID) {
		n := g.Node(v)
		if n.Kind == wdgraph.FactNode && n.EDB {
			out = append(out, v)
		}
	})
	return out
}

// scored is a priority-queue entry: a candidate finalization of a fact
// node via rule node rule (or -1 for edb leaves).
type scored struct {
	id    wdgraph.NodeID
	score float64
	rule  int32
}

type scoreHeap []scored

func (h scoreHeap) Len() int           { return len(h) }
func (h scoreHeap) Less(i, j int) bool { return h[i].score > h[j].score }
func (h scoreHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *scoreHeap) Push(x any)        { *h = append(*h, x.(scored)) }
func (h *scoreHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
