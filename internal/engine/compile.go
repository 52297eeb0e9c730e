// Package engine implements bottom-up semi-naive evaluation of datalog
// programs over internal/db databases.
//
// The engine is deterministic: it computes the full consequence P(D) of a
// program. The probabilistic semantics of the paper is layered on top by
// its consumers in two ways:
//
//   - a DerivationListener observes every rule instantiation exactly once,
//     which is what the WD-graph builder (Algorithm 1 of the paper) needs;
//   - a FireGate can veto instantiations before they fire, which is how the
//     Magic^S CM algorithm folds the rule-probability sampling into graph
//     construction (Section IV-B2 of the paper).
package engine

import (
	"fmt"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/planner"
)

// atomTerm is one argument position of a compiled atom: either a constant
// symbol or a reference to a variable slot of the rule.
type atomTerm struct {
	isVar bool
	slot  int    // variable slot index when isVar
	sym   db.Sym // interned constant otherwise
}

// compiledAtom is an atom with terms resolved to variable slots / interned
// constants and the predicate resolved to its relation.
type compiledAtom struct {
	pred  string
	arity int
	rel   *db.Relation
	terms []atomTerm
}

// compiledCheck is a non-binding body literal evaluated after the positive
// join: a built-in comparison or a negated atom. Safety (ast.Rule.Safe)
// guarantees all its variables are bound by the positive atoms.
type compiledCheck struct {
	builtin bool
	negated bool
	pred    string
	rel     *db.Relation // negated checks only
	terms   []atomTerm
}

// compiledRule is a rule with a dense variable slot assignment. body holds
// the positive, non-built-in atoms (the joinable literals); checks holds
// built-ins and negated atoms.
type compiledRule struct {
	src      ast.Rule
	index    int
	varNames []string // slot -> variable name
	head     compiledAtom
	body     []compiledAtom
	checks   []compiledCheck

	// The rule's join schedule, sourced from internal/planner. plans[d] is
	// the join order used when body position d carries the delta:
	// plans[d][0] == d, and the remaining positions are ordered bound-first
	// (greedily maximizing already-bound argument positions) so index
	// lookups stay selective. Join order affects only cost, never the
	// result set; the semi-naive watermark of each atom depends on its
	// original position, not its place in the plan. checksAt[d][step]
	// lists check indices to evaluate as soon as plan step `step` of delta
	// position d binds its atom; preChecks lists ground checks evaluated
	// once per pass. All three may alias a shared cached Plan — read-only.
	plans     [][]int
	checksAt  [][][]int
	preChecks []int
}

// plannerRule projects the compiled rule onto the planner's shape view:
// variable slots kept, constants anonymized (plans never depend on which
// constant sits in a position).
func plannerRule(cr *compiledRule) *planner.Rule {
	shapeTerms := func(terms []atomTerm) []planner.Term {
		out := make([]planner.Term, len(terms))
		for j, t := range terms {
			out[j] = planner.Term{IsVar: t.isVar, Slot: t.slot}
		}
		return out
	}
	r := &planner.Rule{
		NumVars: len(cr.varNames),
		Atoms:   make([]planner.Atom, len(cr.body)),
		Checks:  make([]planner.Check, len(cr.checks)),
	}
	for i := range cr.body {
		r.Atoms[i] = planner.Atom{Pred: cr.body[i].pred, Terms: shapeTerms(cr.body[i].terms)}
	}
	for i := range cr.checks {
		c := &cr.checks[i]
		r.Checks[i] = planner.Check{Builtin: c.builtin, Negated: c.negated, Pred: c.pred, Terms: shapeTerms(c.terms)}
	}
	return r
}

// compile resolves a program against a database: it interns all constants,
// assigns variable slots per rule, resolves (creating when necessary) the
// relation of every predicate, and plans every rule through pl (nil plans
// without caching).
func compile(prog *ast.Program, database *db.Database, pl *planner.Planner) ([]*compiledRule, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("engine: invalid program: %w", err)
	}
	rules := make([]*compiledRule, len(prog.Rules))
	for i, r := range prog.Rules {
		cr := &compiledRule{src: r, index: i}
		slots := map[string]int{}
		slotOf := func(name string) int {
			if s, ok := slots[name]; ok {
				return s
			}
			s := len(cr.varNames)
			slots[name] = s
			cr.varNames = append(cr.varNames, name)
			return s
		}
		compileAtom := func(a ast.Atom) (compiledAtom, error) {
			if a.Arity() > 31 {
				return compiledAtom{}, fmt.Errorf("engine: predicate %s arity %d exceeds 31", a.Predicate, a.Arity())
			}
			rel, err := database.EnsureRelation(a.Predicate, a.Arity())
			if err != nil {
				return compiledAtom{}, fmt.Errorf("engine: %w", err)
			}
			ca := compiledAtom{
				pred:  a.Predicate,
				arity: a.Arity(),
				rel:   rel,
				terms: make([]atomTerm, a.Arity()),
			}
			for j, t := range a.Terms {
				if t.IsVar() {
					ca.terms[j] = atomTerm{isVar: true, slot: slotOf(t.Name)}
				} else {
					ca.terms[j] = atomTerm{sym: database.Symbols().Intern(t.Name)}
				}
			}
			return ca, nil
		}
		// Terms of a check atom are compiled without resolving a relation
		// (built-ins have none).
		compileTerms := func(a ast.Atom) []atomTerm {
			terms := make([]atomTerm, a.Arity())
			for j, t := range a.Terms {
				if t.IsVar() {
					terms[j] = atomTerm{isVar: true, slot: slotOf(t.Name)}
				} else {
					terms[j] = atomTerm{sym: database.Symbols().Intern(t.Name)}
				}
			}
			return terms
		}
		// Positive body first so that head and check variables reuse body
		// slots (range restriction and safety guarantee they all occur in
		// positive body atoms).
		var err error
		for _, b := range r.Body {
			if b.Negated || ast.IsBuiltin(b.Predicate) {
				continue
			}
			ca, err := compileAtom(b)
			if err != nil {
				return nil, err
			}
			cr.body = append(cr.body, ca)
		}
		for _, b := range r.Body {
			switch {
			case ast.IsBuiltin(b.Predicate):
				cr.checks = append(cr.checks, compiledCheck{
					builtin: true,
					pred:    b.Predicate,
					terms:   compileTerms(b),
				})
			case b.Negated:
				if b.Arity() > 31 {
					return nil, fmt.Errorf("engine: predicate %s arity %d exceeds 31", b.Predicate, b.Arity())
				}
				rel, err := database.EnsureRelation(b.Predicate, b.Arity())
				if err != nil {
					return nil, fmt.Errorf("engine: %w", err)
				}
				cr.checks = append(cr.checks, compiledCheck{
					negated: true,
					pred:    b.Predicate,
					rel:     rel,
					terms:   compileTerms(b),
				})
			}
		}
		if cr.head, err = compileAtom(r.Head); err != nil {
			return nil, err
		}
		p := pl.PlanRule(plannerRule(cr))
		cr.plans, cr.checksAt, cr.preChecks = p.Order, p.ChecksAt, p.Pre
		rules[i] = cr
	}
	return rules, nil
}
