package provenance

import (
	"container/heap"

	"contribmax/internal/wdgraph"
)

// TopKDerivations enumerates up to k cycle-free derivation trees of the
// fact at root, in non-increasing score order (per-occurrence weight
// product, as in BestDerivation). The first result, when any exists,
// equals BestDerivation's tree score.
//
// The enumeration is a best-first (A*) search over partial trees: the
// priority of a partial tree is the product of its already-chosen rule
// weights and the Knuth best score of every still-open fact slot — an
// admissible bound, since completing a slot can only multiply by at most
// its best score. Trees in which a fact would appear as its own ancestor
// are skipped (they only rearrange probability mass that a smaller tree
// already carries).
//
// maxExpansions caps the search (0 means 100·k·1000); on instances with
// very many near-equal derivations the cap may truncate the result early.
func TopKDerivations(g *wdgraph.Graph, root wdgraph.NodeID, k, maxExpansions int) []*Tree {
	if k <= 0 {
		return nil
	}
	if maxExpansions <= 0 {
		maxExpansions = 100 * k * 1000
	}
	sc := computeScores(g)
	if !sc.final[root] {
		return nil
	}

	pq := &partialHeap{}
	heap.Init(pq)
	heap.Push(pq, &partial{
		bound: sc.score[root],
		open:  []slot{{fact: root}},
	})

	var out []*Tree
	for pq.Len() > 0 && len(out) < k && maxExpansions > 0 {
		maxExpansions--
		p := heap.Pop(pq).(*partial)
		if len(p.open) == 0 {
			out = append(out, replay(g, root, p.choices))
			continue
		}
		// Expand the last open slot with every applicable rule.
		s := p.open[len(p.open)-1]
		node := g.Node(s.fact)
		if node.EDB {
			// edb leaf: close the slot with no choice.
			heap.Push(pq, p.close(s, -1, 1, nil, sc))
			continue
		}
		for _, ruleID := range g.InEdges(s.fact) {
			if g.Node(ruleID).Kind != wdgraph.RuleNode {
				continue
			}
			// Bodies become new open slots unless one is an ancestor
			// (cycle) or underivable.
			bodies := g.InEdges(ruleID)
			ok := true
			for _, bu := range bodies {
				if !sc.final[bu] || s.onPath(bu) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			heap.Push(pq, p.close(s, int32(ruleID), g.Weight(ruleID), bodies, sc))
		}
	}
	return out
}

// slot is an open fact position with its ancestor chain (for cycle
// pruning).
type slot struct {
	fact      wdgraph.NodeID
	ancestors *ancNode
}

type ancNode struct {
	fact wdgraph.NodeID
	next *ancNode
}

func (s slot) onPath(f wdgraph.NodeID) bool {
	if f == s.fact {
		return true
	}
	for a := s.ancestors; a != nil; a = a.next {
		if a.fact == f {
			return true
		}
	}
	return false
}

// partial is a partially expanded derivation tree. choices records, in
// expansion order, the rule node chosen for each closed idb slot (and -1
// for edb leaves); replaying the choices with the same deterministic
// expansion order rebuilds the tree.
type partial struct {
	bound   float64
	choices []int32
	open    []slot
}

// close returns a new partial with slot s (the last open one) resolved by
// ruleID (weight w), pushing the rule's bodies as new open slots.
func (p *partial) close(s slot, ruleID int32, w float64, bodies []wdgraph.NodeID, sc scores) *partial {
	np := &partial{
		bound:   p.bound / sc.score[s.fact] * w,
		choices: append(append(make([]int32, 0, len(p.choices)+1), p.choices...), ruleID),
		open:    append(make([]slot, 0, len(p.open)-1+len(bodies)), p.open[:len(p.open)-1]...),
	}
	anc := &ancNode{fact: s.fact, next: s.ancestors}
	for _, bu := range bodies {
		np.bound *= sc.score[bu]
		np.open = append(np.open, slot{fact: bu, ancestors: anc})
	}
	return np
}

// replay rebuilds the tree from a complete choice sequence, mirroring the
// expansion order (always the last open slot). During replay each node's
// Prob temporarily holds its own rule weight; the final pass folds in the
// children bottom-up.
func replay(g *wdgraph.Graph, root wdgraph.NodeID, choices []int32) *Tree {
	rootTree := &Tree{Pred: g.Node(root).Pred, Tuple: g.Node(root).Tuple, Prob: 1}
	open := []*Tree{rootTree}
	for _, c := range choices {
		t := open[len(open)-1]
		open = open[:len(open)-1]
		if c < 0 {
			continue // edb leaf, Prob stays 1
		}
		ruleID := wdgraph.NodeID(c)
		t.Rule = g.Node(ruleID).Pred
		t.Prob = g.Weight(ruleID)
		for _, bu := range g.InEdges(ruleID) {
			bn := g.Node(bu)
			child := &Tree{Pred: bn.Pred, Tuple: bn.Tuple, Prob: 1}
			t.Children = append(t.Children, child)
			open = append(open, child)
		}
	}
	fillSubtreeProbs(rootTree)
	return rootTree
}

// fillSubtreeProbs folds children's probabilities into each subtree's,
// bottom-up; on entry every node's Prob holds just its own rule weight.
func fillSubtreeProbs(t *Tree) float64 {
	for _, c := range t.Children {
		t.Prob *= fillSubtreeProbs(c)
	}
	return t.Prob
}

type partialHeap []*partial

func (h partialHeap) Len() int           { return len(h) }
func (h partialHeap) Less(i, j int) bool { return h[i].bound > h[j].bound }
func (h partialHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *partialHeap) Push(x any)        { *h = append(*h, x.(*partial)) }
func (h *partialHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
