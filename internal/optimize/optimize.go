// Package optimize implements semantics-preserving datalog program
// simplifications: constant folding of built-in comparisons, removal of
// rules that can never fire or never derive anything new, and
// deduplication of redundant deterministic rules.
//
// All transformations preserve the program's fixpoint P(D) for every
// database and preserve the contribution function of the paper (random-
// subgraph reachability): a dropped rule either never produces an
// instantiation (unsatisfiable built-in) or only produces instantiations
// whose head is one of their own body facts (which add no reachability).
package optimize

import "contribmax/internal/ast"

// Report counts what the optimizer did.
type Report struct {
	// FoldedAtoms is the number of always-true built-in atoms removed from
	// rule bodies.
	FoldedAtoms int
	// DroppedUnsatisfiable is the number of rules removed because a
	// built-in body atom can never hold.
	DroppedUnsatisfiable int
	// DroppedSelfSupport is the number of rules removed because the head
	// atom occurs among the rule's own positive body atoms.
	DroppedSelfSupport int
	// DroppedDuplicates is the number of probability-1 rules removed as
	// exact duplicates (up to variable renaming) of an earlier
	// probability-1 rule.
	DroppedDuplicates int
}

// Changed reports whether the optimizer modified anything.
func (r Report) Changed() bool {
	return r.FoldedAtoms+r.DroppedUnsatisfiable+r.DroppedSelfSupport+r.DroppedDuplicates > 0
}

// Program returns an optimized copy of p (p itself is not modified) and a
// report. The result is validated; optimization never invalidates a valid
// program.
func Program(p *ast.Program) (*ast.Program, Report) {
	var rep Report
	out := ast.NewProgram()
	seen := map[string]bool{}
rules:
	for _, r := range p.Rules {
		nr := r.Clone()
		body := nr.Body[:0]
		for _, b := range nr.Body {
			switch foldAtom(b) {
			case foldTrue:
				rep.FoldedAtoms++
				continue
			case foldFalse:
				rep.DroppedUnsatisfiable++
				continue rules
			}
			body = append(body, b)
		}
		nr.Body = body
		// Self-supporting rule: the head among its own positive body atoms
		// can only re-derive an existing fact through itself.
		for _, b := range nr.Body {
			if !b.Negated && b.Equal(nr.Head) {
				rep.DroppedSelfSupport++
				continue rules
			}
		}
		if nr.Prob >= 1 {
			sig := ast.CanonicalSig(nr.Head, nr.Body)
			if seen[sig] {
				rep.DroppedDuplicates++
				continue rules
			}
			seen[sig] = true
		}
		out.Add(nr)
	}
	return out, rep
}

type foldResult int

const (
	foldKeep foldResult = iota
	foldTrue
	foldFalse
)

// foldAtom statically evaluates a built-in atom when possible: both
// arguments constant, or both the same variable.
func foldAtom(a ast.Atom) foldResult {
	if !ast.IsBuiltin(a.Predicate) || a.Arity() != 2 {
		return foldKeep
	}
	x, y := a.Terms[0], a.Terms[1]
	if x.IsConst() && y.IsConst() {
		if ast.EvalBuiltin(a.Predicate, x.Name, y.Name) {
			return foldTrue
		}
		return foldFalse
	}
	if x.IsVar() && y.IsVar() && x.Name == y.Name {
		// Reflexive instance: X op X.
		switch a.Predicate {
		case ast.BuiltinEq, ast.BuiltinLte, ast.BuiltinGte:
			return foldTrue
		case ast.BuiltinNeq, ast.BuiltinLt, ast.BuiltinGt:
			return foldFalse
		}
	}
	return foldKeep
}
