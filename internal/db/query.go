package db

import (
	"fmt"

	"contribmax/internal/ast"
)

// Match returns the tuples of pattern's relation that unify with pattern:
// constants must match, repeated variables must bind consistently, and
// distinct variables are unconstrained. Results are in insertion order.
//
// Match is a point-lookup/scan convenience for inspecting databases (the
// cmrun/wddump CLIs and the examples); full conjunctive queries go through
// a datalog rule and the engine.
func (d *Database) Match(pattern ast.Atom) ([]ast.Atom, error) {
	if pattern.Negated {
		return nil, fmt.Errorf("db: cannot match a negated pattern")
	}
	rel, ok := d.relations[pattern.Predicate]
	if !ok {
		return nil, nil
	}
	if rel.Arity() != pattern.Arity() {
		return nil, fmt.Errorf("db: pattern %s has arity %d, relation has %d", pattern, pattern.Arity(), rel.Arity())
	}

	// Bound positions: constants and the first occurrence of each repeated
	// variable cannot be pre-bound, but constants can use the pattern
	// index. A constant past position 31, which the index mask cannot
	// carry, is checked by matches instead.
	var mask uint32
	var unindexed []int
	lookup := make(Tuple, rel.Arity())
	for i, t := range pattern.Terms {
		if t.IsConst() {
			sym, ok := d.symbols.Lookup(t.Name)
			if !ok {
				return nil, nil // constant never interned: no matches
			}
			lookup[i] = sym
			if i < 32 {
				mask |= 1 << uint(i)
			} else {
				unindexed = append(unindexed, i)
			}
		}
	}

	// Repeated-variable positions: map variable name to its first
	// position.
	firstPos := map[string]int{}
	type eqPair struct{ a, b int }
	var eqs []eqPair
	for i, t := range pattern.Terms {
		if !t.IsVar() {
			continue
		}
		if p, seen := firstPos[t.Name]; seen {
			eqs = append(eqs, eqPair{p, i})
		} else {
			firstPos[t.Name] = i
		}
	}

	matches := func(t Tuple) bool {
		for _, p := range unindexed {
			if t[p] != lookup[p] {
				return false
			}
		}
		for _, e := range eqs {
			if t[e.a] != t[e.b] {
				return false
			}
		}
		return true
	}

	var out []ast.Atom
	if ids, ok := rel.LookupPattern(mask, lookup); ok {
		for _, id := range ids {
			if matches(rel.Tuple(id)) {
				out = append(out, d.AtomOf(rel, id))
			}
		}
		return out, nil
	}
	for id := 0; id < rel.Len(); id++ {
		if matches(rel.Tuple(TupleID(id))) {
			out = append(out, d.AtomOf(rel, TupleID(id)))
		}
	}
	return out, nil
}
