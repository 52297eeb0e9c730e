// Package magic implements the Magic-Sets transformation for probabilistic
// datalog programs (Section IV-B1 of the paper): given a program (P, w) and
// one or more ground query atoms, it produces a transformed program
// (P^m, w^m) whose bottom-up evaluation derives exactly the facts relevant
// to the queries, with probabilities assigned per Definition 4.3 (modified
// rules inherit their origin rule's probability; magic, seed, and query
// rules get probability 1).
//
// The adornment arithmetic (binding patterns, SIPS body ordering) is owned
// by internal/analysis — the same dataflow the analyzer's Magic-Sets
// simulation (CM011) and the program profiler run — and aliased here, so
// the transformation and its static prediction can never drift apart.
package magic

import (
	"strings"

	"contribmax/internal/analysis"
	"contribmax/internal/ast"
)

// Adornment is a binding pattern: one byte per argument position, 'b' for
// bound, 'f' for free. It aliases analysis.Adornment; both packages speak
// the same patterns.
type Adornment = analysis.Adornment

// AllBound returns the all-'b' adornment of the given arity (the adornment
// of a ground query atom).
func AllBound(arity int) Adornment {
	return analysis.AllBound(arity)
}

// adornmentFor computes the adornment of atom given the set of bound
// variable names: a position is bound iff its term is a constant or a bound
// variable.
func adornmentFor(atom ast.Atom, bound map[string]bool) Adornment {
	return analysis.AdornmentFor(atom, bound)
}

// Naming scheme for generated predicates. The '@' separator cannot occur in
// bare parsed identifiers, so generated names never collide with user
// predicates, and the number of separators tells the kinds apart: one in
// an adorned name, two in a magic or query name.

// AdornedPred returns the name of the adorned version of pred.
func AdornedPred(pred string, a Adornment) string {
	return pred + "@" + string(a)
}

// MagicPred returns the name of the magic predicate for pred^a.
func MagicPred(pred string, a Adornment) string {
	return "m@" + pred + "@" + string(a)
}

// QueryPred returns the name of the query relation for pred^a: the input
// relation that holds the ground queries of pred a Magic program answers.
func QueryPred(pred string, a Adornment) string {
	return "q@" + pred + "@" + string(a)
}

// SplitAdorned parses an adorned, magic or query predicate name. It
// returns the original predicate, the adornment, whether the name is a
// magic or query predicate (aux: one without a counterpart in the origin
// program's WD graph), and ok=false for plain (untransformed) names.
func SplitAdorned(name string) (orig string, a Adornment, aux bool, ok bool) {
	i := strings.LastIndexByte(name, '@')
	if i < 0 {
		return "", "", false, false
	}
	orig, a = name[:i], Adornment(name[i+1:])
	if j := strings.IndexByte(orig, '@'); j >= 0 {
		return orig[j+1:], a, true, true
	}
	return orig, a, false, true
}
