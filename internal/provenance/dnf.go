package provenance

import (
	"errors"
	"fmt"
	"sort"

	"contribmax/internal/wdgraph"
)

// Derivation DNFs. Under the random-subgraph semantics (Definition 3.4)
// every edge of the WD graph is present independently with its weight;
// fact→rule edges carry weight 1 and each rule node has exactly one
// weighted out-edge, so the only genuine Bernoulli variables of a WD graph
// are its probabilistic rule instantiations (rule nodes with out-weight
// < 1). Two monotone DNFs over those variables matter:
//
//   - The reachability lineage of a pair (s, t): one clause per simple
//     s→t path, listing the probabilistic rule nodes the path crosses.
//     Pr[the DNF holds] is exactly Pr[s ⇝ t] — the quantity one RR walk
//     samples — because reachability holds iff some simple path has all
//     its (independent) rule variables firing.
//   - The derivation lineage of a single fact t: clauses are the
//     variable sets of t's derivation trees (conjunctive semantics).
//     Pr[the DNF holds] is the query probability of t — the quantity
//     DerivationProbability estimates by Monte Carlo.
//
// Both extractions share a VarTable mapping dense variable ids to rule
// nodes and probabilities, and both are budgeted: lineages are worst-case
// exponential, and callers (the exact tier in internal/cm) fall back to
// sampling when a budget trips.

// ErrLineageBudget reports a lineage that exceeded its extraction budget.
// Callers should treat it as "too hard for the exact tier", not a failure.
var ErrLineageBudget = errors.New("provenance: lineage exceeds extraction budget")

// errRecursiveCone reports a derivation-lineage extraction that hit a
// cycle; derivation DNFs are defined here for non-recursive cones only.
var errRecursiveCone = errors.New("provenance: derivation lineage requires a non-recursive cone")

// DNFBudget caps lineage extraction. The zero value selects defaults
// sized for the exact tier's intended instances (thousands of clauses).
type DNFBudget struct {
	// MaxClauses bounds the total number of clauses extracted (across all
	// sources for ReachabilityLineage, for the single root otherwise).
	MaxClauses int
	// MaxSteps bounds the number of DFS/expansion steps, catching graphs
	// whose path count explodes before the clause cap is reached.
	MaxSteps int
}

func (b DNFBudget) maxClauses() int {
	if b.MaxClauses > 0 {
		return b.MaxClauses
	}
	return 20000
}

func (b DNFBudget) maxSteps() int {
	if b.MaxSteps > 0 {
		return b.MaxSteps
	}
	return 2_000_000
}

// VarTable maps dense lineage variable ids to their WD rule nodes and
// firing probabilities. One table is shared by every clause of a lineage.
type VarTable struct {
	// Probs[i] is the probability of variable i (strictly < 1: weight-1
	// rule instantiations are deterministic and never become variables).
	Probs []float64
	// Nodes[i] is the rule node variable i stands for.
	Nodes []wdgraph.NodeID

	byNode map[wdgraph.NodeID]int32
}

func newVarTable() *VarTable {
	return &VarTable{byNode: map[wdgraph.NodeID]int32{}}
}

// idOf interns the rule node as a variable, returning (-1, false) when the
// node is deterministic (weight >= 1).
func (vt *VarTable) idOf(g *wdgraph.Graph, r wdgraph.NodeID) (int32, bool) {
	if id, ok := vt.byNode[r]; ok {
		return id, true
	}
	w := g.Weight(r)
	if w >= 1 {
		return -1, false
	}
	id := int32(len(vt.Probs))
	vt.byNode[r] = id
	vt.Probs = append(vt.Probs, w)
	vt.Nodes = append(vt.Nodes, r)
	return id, true
}

// Len returns the number of interned variables.
func (vt *VarTable) Len() int { return len(vt.Probs) }

// ReachLineage is the reachability lineage of one target: for every EDB
// fact with at least one path to the target, the path DNF of the pair.
type ReachLineage struct {
	// Vars is the variable table shared by every clause.
	Vars *VarTable
	// Sources lists the EDB fact nodes reaching the target, in the
	// deterministic order the reverse DFS first discovered them.
	Sources []wdgraph.NodeID
	// Clauses[i] is the normalized path DNF of Sources[i]: each clause a
	// strictly ascending variable-id slice, duplicates and supersets
	// removed. An empty clause (a fully deterministic path) makes the
	// whole DNF true.
	Clauses [][][]int32
	// NumClauses is the total clause count over all sources, after
	// normalization.
	NumClauses int
}

// ReachabilityLineage extracts, for every EDB fact backward-reachable from
// root, the DNF over probabilistic rule instantiations whose truth is
// equivalent to "the fact reaches root in the sampled subgraph". The
// enumeration walks simple reverse paths (reachability is witnessed by a
// simple path, so cycles in recursive cones are skipped, not looped), and
// returns ErrLineageBudget when the budget trips.
func ReachabilityLineage(g *wdgraph.Graph, root wdgraph.NodeID, budget DNFBudget) (*ReachLineage, error) {
	out := &ReachLineage{Vars: newVarTable()}
	raw := map[wdgraph.NodeID][][]int32{}
	maxClauses, maxSteps := budget.maxClauses(), budget.maxSteps()
	steps, clauses := 0, 0

	onPath := make([]bool, g.NumNodes())
	var pathVars []int32

	// Iterative DFS over reverse edges with an explicit frame stack: each
	// frame is a node plus the index of the next in-edge to expand.
	// Frames alternate fact and rule nodes; the probabilistic variable of
	// a rule node joins pathVars for the duration of its frame.
	type frame struct {
		node   wdgraph.NodeID
		ei     int
		pushed bool // this frame added a variable to pathVars
	}
	var walk func(wdgraph.NodeID) error
	walk = func(start wdgraph.NodeID) error {
		stack := []frame{{node: start}}
		onPath[start] = true
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if steps++; steps > maxSteps {
				return ErrLineageBudget
			}
			if f.ei == 0 {
				node := g.Node(f.node)
				if node.Kind == wdgraph.RuleNode {
					if id, ok := out.Vars.idOf(g, f.node); ok {
						pathVars = append(pathVars, id)
						f.pushed = true
					}
				} else if node.EDB {
					// An EDB source: the current pathVars are one clause of
					// its path DNF. EDB facts have no in-edges, so the frame
					// pops right after.
					if clauses++; clauses > maxClauses {
						return ErrLineageBudget
					}
					if _, seen := raw[f.node]; !seen {
						out.Sources = append(out.Sources, f.node)
					}
					raw[f.node] = append(raw[f.node], sortedCopy(pathVars))
				}
			}
			ins := g.InEdges(f.node)
			advanced := false
			for f.ei < len(ins) {
				next := ins[f.ei]
				f.ei++
				if onPath[next] {
					continue // simple paths only; also breaks cycles
				}
				onPath[next] = true
				stack = append(stack, frame{node: next})
				advanced = true
				break
			}
			if advanced {
				continue
			}
			if f.pushed {
				pathVars = pathVars[:len(pathVars)-1]
			}
			onPath[f.node] = false
			stack = stack[:len(stack)-1]
		}
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	out.Clauses = make([][][]int32, len(out.Sources))
	for i, s := range out.Sources {
		out.Clauses[i] = NormalizeClauses(raw[s])
		out.NumClauses += len(out.Clauses[i])
	}
	return out, nil
}

// DerivationLineage extracts the derivation DNF of the fact at root: the
// disjunction, over root's derivation trees, of the probabilistic rule
// instantiations each tree uses. Pr[DNF] is the conjunctive-semantics
// query probability of the fact. The cone must be non-recursive (a cycle
// returns an error); budgets apply as in ReachabilityLineage.
func DerivationLineage(g *wdgraph.Graph, root wdgraph.NodeID, budget DNFBudget) (*VarTable, [][]int32, error) {
	vt := newVarTable()
	maxClauses, maxSteps := budget.maxClauses(), budget.maxSteps()
	steps := 0
	memo := map[wdgraph.NodeID][][]int32{}
	onStack := make(map[wdgraph.NodeID]bool)

	var dnfOf func(wdgraph.NodeID) ([][]int32, error)
	dnfOf = func(v wdgraph.NodeID) ([][]int32, error) {
		if d, ok := memo[v]; ok {
			return d, nil
		}
		if onStack[v] {
			return nil, errRecursiveCone
		}
		if steps++; steps > maxSteps {
			return nil, ErrLineageBudget
		}
		node := g.Node(v)
		if node.Kind == wdgraph.FactNode && node.EDB {
			d := [][]int32{{}}
			memo[v] = d
			return d, nil
		}
		onStack[v] = true
		defer delete(onStack, v)
		var acc [][]int32
		switch node.Kind {
		case wdgraph.FactNode:
			// OR over the rule instantiations deriving the fact.
			for _, u := range g.InEdges(v) {
				d, err := dnfOf(u)
				if err != nil {
					return nil, err
				}
				acc = append(acc, d...)
				if len(acc) > maxClauses {
					return nil, ErrLineageBudget
				}
			}
		case wdgraph.RuleNode:
			// AND over the body facts, times the rule's own variable.
			acc = [][]int32{{}}
			if id, ok := vt.idOf(g, v); ok {
				acc = [][]int32{{id}}
			}
			for _, u := range g.InEdges(v) {
				d, err := dnfOf(u)
				if err != nil {
					return nil, err
				}
				next := make([][]int32, 0, len(acc))
				for _, a := range acc {
					for _, b := range d {
						if steps++; steps > maxSteps {
							return nil, ErrLineageBudget
						}
						next = append(next, unionClause(a, b))
						if len(next) > maxClauses {
							return nil, ErrLineageBudget
						}
					}
				}
				acc = NormalizeClauses(next)
			}
		}
		acc = NormalizeClauses(acc)
		memo[v] = acc
		return acc, nil
	}
	d, err := dnfOf(root)
	if err != nil {
		return nil, nil, err
	}
	return vt, d, nil
}

// NormalizeClauses sorts each clause, removes duplicate variables within a
// clause, then removes duplicate and subsumed clauses (a superset of
// another clause is redundant in a monotone DNF). The result is ordered
// shortest-first, ties lexicographic, so normalization is deterministic.
func NormalizeClauses(clauses [][]int32) [][]int32 {
	norm := make([][]int32, 0, len(clauses))
	seen := map[string]bool{}
	for _, c := range clauses {
		s := sortedCopy(c)
		k := clauseKey(s)
		if seen[k] {
			continue
		}
		seen[k] = true
		norm = append(norm, s)
	}
	sort.Slice(norm, func(i, j int) bool {
		if len(norm[i]) != len(norm[j]) {
			return len(norm[i]) < len(norm[j])
		}
		return clauseLess(norm[i], norm[j])
	})
	// Subsumption: clauses are visited shortest-first, so any clause
	// containing an already-kept clause is redundant.
	kept := norm[:0]
	for _, c := range norm {
		redundant := false
		for _, k := range kept {
			if containsAll(c, k) {
				redundant = true
				break
			}
		}
		if !redundant {
			kept = append(kept, c)
		}
	}
	return kept
}

// sortedCopy returns an ascending duplicate-free copy of vars.
func sortedCopy(vars []int32) []int32 {
	out := make([]int32, len(vars))
	copy(out, vars)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

// unionClause merges two ascending clauses into a fresh ascending clause.
func unionClause(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// containsAll reports whether ascending clause c contains every variable
// of ascending clause k.
func containsAll(c, k []int32) bool {
	i := 0
	for _, want := range k {
		for i < len(c) && c[i] < want {
			i++
		}
		if i >= len(c) || c[i] != want {
			return false
		}
		i++
	}
	return true
}

func clauseLess(a, b []int32) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func clauseKey(c []int32) string {
	b := make([]byte, 0, len(c)*4)
	for _, v := range c {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// ClausesString renders a clause set for debugging and test failure
// messages.
func ClausesString(clauses [][]int32) string {
	s := "{"
	for i, c := range clauses {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%v", c)
	}
	return s + "}"
}
