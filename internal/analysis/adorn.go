package analysis

import (
	"sort"
	"strings"

	"contribmax/internal/ast"
)

// This file owns the adornment (binding-pattern) arithmetic shared by the
// analyzer and the Magic-Sets transformation (internal/magic aliases these
// types rather than duplicating the logic; the package layering puts
// analysis below the engine, and magic above it, so the shared code must
// live here). On top of the primitives it implements ComputeFlow, the
// adornment dataflow pass: a breadth-first propagation of binding patterns
// from the query roots that records, per rule and per body atom, which
// argument positions are bound when the Magic-Sets rewriting (or a
// binding-aware join planner) processes the atom.

// Adornment is a binding pattern: one byte per argument position, 'b' for
// bound, 'f' for free.
type Adornment string

// AllBound returns the all-'b' adornment of the given arity (the adornment
// of a ground query atom).
func AllBound(arity int) Adornment {
	return Adornment(strings.Repeat("b", arity))
}

// AllFree reports whether the adornment binds no position. The empty
// adornment (a 0-ary predicate) is not considered all-free: there is
// nothing to bind.
func (a Adornment) AllFree() bool {
	return len(a) > 0 && !strings.ContainsRune(string(a), 'b')
}

// BoundPositions returns the indices of bound positions, in order.
func (a Adornment) BoundPositions() []int {
	var out []int
	for i := 0; i < len(a); i++ {
		if a[i] == 'b' {
			out = append(out, i)
		}
	}
	return out
}

// NumBound returns the number of bound positions.
func (a Adornment) NumBound() int {
	n := 0
	for i := 0; i < len(a); i++ {
		if a[i] == 'b' {
			n++
		}
	}
	return n
}

// AdornmentFor computes the adornment of atom given the set of bound
// variable names: a position is bound iff its term is a constant or a bound
// variable.
func AdornmentFor(atom ast.Atom, bound map[string]bool) Adornment {
	var sb strings.Builder
	sb.Grow(atom.Arity())
	for _, t := range atom.Terms {
		if t.IsConst() || bound[t.Name] {
			sb.WriteByte('b')
		} else {
			sb.WriteByte('f')
		}
	}
	return Adornment(sb.String())
}

// SIPS selects the sideways information passing strategy: the order in
// which a rule's body atoms are processed during adornment, which
// determines the binding patterns (and hence how much a binding-aware
// rewriting prunes).
type SIPS int

const (
	// LeftToRight processes body atoms in source order — the textbook
	// strategy and the default.
	LeftToRight SIPS = iota
	// BoundFirst greedily picks the unprocessed atom with the most bound
	// argument positions (ties: edb before idb, then source order), so
	// adornments carry as many bindings as possible and built-in filters
	// run as early as their variables allow.
	BoundFirst
)

// OrderBody returns the body atoms in SIPS processing order. bound is the
// initially bound variable set (from the head adornment) and is NOT
// mutated. For LeftToRight the source order is returned as-is. Under
// BoundFirst a built-in filters and binds nothing, so it is eligible only
// once all its variables are bound; in an unsafe rule, where none is
// eligible, the earliest unprocessed atom goes next.
func OrderBody(body []ast.Atom, bound map[string]bool, sips SIPS, idb map[string]bool) []ast.Atom {
	if sips == LeftToRight || len(body) < 2 {
		return body
	}
	cur := map[string]bool{}
	for v := range bound {
		cur[v] = true
	}
	score := func(a ast.Atom) int {
		s := 0
		for _, t := range a.Terms {
			if t.IsConst() || cur[t.Name] {
				s++
			}
		}
		return s
	}
	allBound := func(a ast.Atom) bool {
		for _, t := range a.Terms {
			if t.IsVar() && !cur[t.Name] {
				return false
			}
		}
		return true
	}
	out := make([]ast.Atom, 0, len(body))
	used := make([]bool, len(body))
	for len(out) < len(body) {
		best, bestKey := -1, -1
		for i, a := range body {
			if used[i] {
				continue
			}
			if best < 0 {
				best = i
			}
			if ast.IsBuiltin(a.Predicate) && !allBound(a) {
				continue
			}
			// Score: bound positions dominate; prefer edb atoms on ties;
			// earliest source position breaks remaining ties (strict >).
			key := score(a)*2 + boolToInt(!idb[a.Predicate])
			if key > bestKey {
				best, bestKey = i, key
			}
		}
		used[best] = true
		out = append(out, body[best])
		for _, v := range body[best].Vars(nil) {
			cur[v] = true
		}
	}
	return out
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Occurrence is one body-atom visit of the adornment dataflow: rule Rule
// was processed under head adornment HeadAdornment, and its body atom at
// source index Body received adornment Adornment. Built-in literals are
// skipped (they filter, they do not bind or receive adornments). A body
// atom can occur several times, once per distinct head adornment the rule
// is processed under; occurrences appear in BFS order.
type Occurrence struct {
	Rule          int
	Body          int
	Pred          string
	Adornment     Adornment
	HeadAdornment Adornment
	Negated       bool
	IDB           bool
	Pos           ast.Pos
}

// Flow is the result of the adornment dataflow pass.
type Flow struct {
	// Roots are the query predicates the propagation started from (only
	// those intensional in the program seed goals).
	Roots []string
	// Goals maps each reached intensional predicate to the distinct
	// adornments it was reached with, in first-reached order. Roots appear
	// with their all-bound adornment.
	Goals map[string][]Adornment
	// Occurrences lists every body-atom visit in BFS order.
	Occurrences []Occurrence
}

// Adornments returns the distinct adornments pred was reached with, sorted
// lexicographically for deterministic output (BFS order is preserved in
// Goals itself).
func (f *Flow) Adornments(pred string) []Adornment {
	out := append([]Adornment(nil), f.Goals[pred]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// BoundSomewhere returns, for a reached predicate, a bitmap of argument
// positions bound in at least one reached adornment. ok=false when the
// predicate was never reached.
func (f *Flow) BoundSomewhere(pred string) (bound []bool, ok bool) {
	ads := f.Goals[pred]
	if len(ads) == 0 {
		return nil, false
	}
	bound = make([]bool, len(ads[0]))
	for _, a := range ads {
		for i := 0; i < len(a) && i < len(bound); i++ {
			if a[i] == 'b' {
				bound[i] = true
			}
		}
	}
	return bound, true
}

// ComputeFlow runs the adornment dataflow pass: starting from each
// intensional root at the all-bound adornment (a ground query atom binds
// every argument), it processes each reached (predicate, adornment) goal
// once, walking the defining rules' bodies in SIPS order. A body atom's
// adornment is computed from the currently bound variables; after a
// positive non-built-in atom is processed, all its variables become bound
// (full SIPS — exactly the strategy of internal/magic). Negated atoms
// receive adornments and propagate goals but bind nothing; built-ins are
// skipped entirely.
//
// The pass mirrors magic.TransformWith's worklist, so its Goals set is the
// set of adorned predicates the transformation would generate, without
// constructing the transformed program.
func ComputeFlow(prog *ast.Program, g *DepGraph, roots []string, sips SIPS) *Flow {
	flow := &Flow{Goals: map[string][]Adornment{}}
	if prog == nil || len(roots) == 0 {
		return flow
	}
	arities := prog.Arities()

	type goal struct {
		pred string
		ad   Adornment
	}
	var queue []goal
	visited := map[goal]bool{}
	enqueue := func(p string, ad Adornment) {
		key := goal{p, ad}
		if !visited[key] {
			visited[key] = true
			queue = append(queue, key)
			flow.Goals[p] = append(flow.Goals[p], ad)
		}
	}
	for _, root := range roots {
		if g.IDB[root] {
			flow.Roots = append(flow.Roots, root)
			enqueue(root, AllBound(arities[root]))
		}
	}

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for ri, r := range prog.Rules {
			if r.Head.Predicate != cur.pred {
				continue
			}
			bound := map[string]bool{}
			for i, t := range r.Head.Terms {
				if t.IsVar() && i < len(cur.ad) && cur.ad[i] == 'b' {
					bound[t.Name] = true
				}
			}
			for _, b := range OrderBody(r.Body, bound, sips, g.IDB) {
				if ast.IsBuiltin(b.Predicate) {
					continue
				}
				ad := AdornmentFor(b, bound)
				bi := indexOfAtom(r.Body, b)
				flow.Occurrences = append(flow.Occurrences, Occurrence{
					Rule:          ri,
					Body:          bi,
					Pred:          b.Predicate,
					Adornment:     ad,
					HeadAdornment: cur.ad,
					Negated:       b.Negated,
					IDB:           g.IDB[b.Predicate],
					Pos:           b.Pos,
				})
				if g.IDB[b.Predicate] {
					enqueue(b.Predicate, ad)
				}
				if !b.Negated {
					for _, t := range b.Terms {
						if t.IsVar() {
							bound[t.Name] = true
						}
					}
				}
			}
		}
	}
	return flow
}

// indexOfAtom locates a (possibly reordered) body atom's source index by
// position: OrderBody returns the very atoms of the body slice, so the
// source position uniquely identifies the occurrence.
func indexOfAtom(body []ast.Atom, a ast.Atom) int {
	for i := range body {
		if body[i].Pos == a.Pos && body[i].Predicate == a.Predicate {
			return i
		}
	}
	return -1
}
