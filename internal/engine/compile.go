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
// constants and the predicate resolved to its relation number: an index
// into Compiled.rels, and into every bound engine's relations.
type compiledAtom struct {
	pred  string
	arity int
	rel   int
	terms []atomTerm
}

// compiledCheck is a non-binding body literal evaluated after the positive
// join: a built-in comparison or a negated atom. Safety (ast.Rule.Safe)
// guarantees all its variables are bound by the positive atoms.
type compiledCheck struct {
	builtin bool
	negated bool
	pred    string
	rel     int // relation number, negated checks only
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

// relSchema is one numbered relation of a compiled program.
type relSchema struct {
	name  string
	arity int
}

// Compiled is a program compiled once, independent of any database: it is
// validated, every rule has its variable slots, interned constants and
// join plans, its strata are computed, and every relation it mentions is
// numbered. Bind turns it into an engine over a database. Nothing in a
// Compiled is written after Compile returns, so any number of engines may
// bind it and run at once, on any goroutines.
type Compiled struct {
	symbols *db.SymbolTable
	rules   []*compiledRule
	// rels numbers the relations in the order the rules first mention
	// them, which is the order Bind creates missing ones in.
	rels   []relSchema
	strata [][]int
	// stratErr is Stratify's error for an unstratifiable program; Run
	// returns it.
	stratErr error
}

// Compile compiles prog: it validates the program, interns its constants
// into symbols, assigns variable slots per rule, numbers the relations,
// plans every rule through pl (nil plans without caching) and stratifies
// the program. Each rule's join plan is a greedy bound-first atom order
// per delta position, with every built-in or negated check evaluated at
// the earliest join step where its variables are bound, pruning doomed
// partial bindings instead of fully materializing them. Engines bound to
// the result share all of it: a program compiled once plans once, however
// many engines evaluate it.
func Compile(prog *ast.Program, symbols *db.SymbolTable, pl *planner.Planner) (*Compiled, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("engine: invalid program: %w", err)
	}
	c := &Compiled{symbols: symbols, rules: make([]*compiledRule, len(prog.Rules))}
	relNo := map[string]int{}
	relOf := func(a ast.Atom) (int, error) {
		if a.Arity() > 31 {
			return 0, fmt.Errorf("engine: predicate %s arity %d exceeds 31", a.Predicate, a.Arity())
		}
		if n, ok := relNo[a.Predicate]; ok {
			return n, nil
		}
		n := len(c.rels)
		relNo[a.Predicate] = n
		c.rels = append(c.rels, relSchema{name: a.Predicate, arity: a.Arity()})
		return n, nil
	}
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
		// Terms of a check atom are compiled without resolving a relation
		// (built-ins have none).
		compileTerms := func(a ast.Atom) []atomTerm {
			terms := make([]atomTerm, a.Arity())
			for j, t := range a.Terms {
				if t.IsVar() {
					terms[j] = atomTerm{isVar: true, slot: slotOf(t.Name)}
				} else {
					terms[j] = atomTerm{sym: symbols.Intern(t.Name)}
				}
			}
			return terms
		}
		compileAtom := func(a ast.Atom) (compiledAtom, error) {
			rel, err := relOf(a)
			if err != nil {
				return compiledAtom{}, err
			}
			return compiledAtom{pred: a.Predicate, arity: a.Arity(), rel: rel, terms: compileTerms(a)}, nil
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
				rel, err := relOf(b)
				if err != nil {
					return nil, err
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
		c.rules[i] = cr
	}
	c.strata, c.stratErr = Stratify(prog)
	return c, nil
}

// Bind returns a single-use engine evaluating the compiled program over
// database. It resolves every numbered relation in database, creating the
// absent ones empty, and compiles nothing, so one compilation serves runs
// over any number of databases that hold different input facts. database
// must use the symbol table the program was compiled against.
func (c *Compiled) Bind(database *db.Database) (*Engine, error) {
	if database.Symbols() != c.symbols {
		return nil, fmt.Errorf("engine: database does not share the compiled program's symbol table")
	}
	e := &Engine{c: c, db: database, rels: make([]*db.Relation, len(c.rels))}
	for i, rs := range c.rels {
		rel, err := database.EnsureRelation(rs.name, rs.arity)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		e.rels[i] = rel
	}
	return e, nil
}
