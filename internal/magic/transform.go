package magic

import (
	"fmt"
	"slices"
	"strconv"

	"contribmax/internal/analysis"
	"contribmax/internal/ast"
	"contribmax/internal/db"
)

// RuleKind classifies the rules of a transformed program.
type RuleKind uint8

const (
	// Modified rules are the adorned rewrites of origin rules; they carry
	// the origin rule's probability and are the only rules whose
	// instantiations appear in WD (sub)graphs.
	Modified RuleKind = iota
	// MagicRule rules derive magic ("relevant binding") facts; probability 1.
	MagicRule
	// SeedRule rules m@p@b..b(X1, ..., Xn) :- q@p@b..b(X1, ..., Xn), one
	// per query predicate p, turn the queries in p's query relation into
	// the magic seeds that trigger the evaluation; probability 1.
	SeedRule
	// QueryFact rules are the body-less facts q@p@b..b(c1, ..., cn) of the
	// query relations, one per distinct query atom, after every other
	// rule; probability 1. The shape (Transformed.Shape) leaves them out.
	QueryFact
)

func (k RuleKind) String() string {
	switch k {
	case Modified:
		return "modified"
	case MagicRule:
		return "magic"
	case SeedRule:
		return "seed"
	case QueryFact:
		return "query"
	}
	return "unknown"
}

// RuleMeta describes one rule of a transformed program.
type RuleMeta struct {
	Kind RuleKind
	// Origin is the label of the origin rule (Modified rules only).
	Origin string
	// OriginVars lists the origin rule's variables in canonical order
	// (ast.Rule.Vars order). Magic^S CM keys its fire-or-not draws on the
	// values of these variables so that all modified rules generated from
	// one origin rule share a single draw per instantiation (Section
	// IV-B2's consistency requirement).
	OriginVars []string
	// OriginProb is the origin rule's probability (Modified rules only).
	OriginProb float64
	// KeepBody lists the body positions holding original (non-magic)
	// atoms, i.e. everything but the leading magic atom (Modified only).
	KeepBody []int
}

// Transformed is the result of the Magic-Sets transformation.
type Transformed struct {
	// Program is the transformed program (P^m, w^m): the shape, then one
	// QueryFact rule per distinct query atom, so it evaluates on its own.
	// Rule probabilities follow Definition 4.3.
	Program *ast.Program
	// Meta is parallel to Program.Rules.
	Meta []RuleMeta
	// Queries holds, for each input query atom, its adorned counterpart in
	// the transformed program (the fact t^m whose derivation answers the
	// query).
	Queries []ast.Atom
	// shape is Program without its trailing QueryFact rules, and
	// queryRels names the query relations its seed rules read.
	shape     *ast.Program
	queryRels map[string]bool
	// origEDB records the edb predicates of the origin program.
	origEDB map[string]bool
}

// Shape returns the program without its query facts: it reads the queries
// from the query relations, so it does not depend on the query atoms'
// constants and one compilation of it answers every query of its
// predicates (see LoadQueries). Its rules are Program's first rules, so
// rule indexes and Meta apply to both.
func (t *Transformed) Shape() *ast.Program { return t.shape }

// LoadQueries adds the ground queries pred(tuples[i]), in order, to
// database's query relation of pred, which must be a query predicate of t
// of the tuples' arity. The tuples hold symbols of database's symbol
// table. An evaluation of the shape over database then answers exactly
// the queries loaded, as Program does its own.
func (t *Transformed) LoadQueries(database *db.Database, pred string, tuples ...db.Tuple) error {
	for _, tuple := range tuples {
		name := QueryPred(pred, AllBound(len(tuple)))
		if !t.queryRels[name] {
			return fmt.Errorf("magic: %s/%d is not a query predicate of the program", pred, len(tuple))
		}
		rel, err := database.EnsureRelation(name, len(tuple))
		if err != nil {
			return fmt.Errorf("magic: %w", err)
		}
		rel.Insert(tuple)
	}
	return nil
}

// OrigPred maps a transformed predicate name to the original predicate
// name: adorned predicates map to their origin, plain (edb) predicates map
// to themselves, and magic and query predicates return ok=false (they have
// no counterpart in the origin program's WD graph).
func (t *Transformed) OrigPred(pred string) (string, bool) {
	orig, _, aux, ok := SplitAdorned(pred)
	if !ok {
		return pred, true
	}
	if aux {
		return "", false
	}
	return orig, true
}

// OrigEDB reports whether origPred is extensional in the origin program.
func (t *Transformed) OrigEDB(origPred string) bool { return t.origEDB[origPred] }

// SIPS selects the sideways information passing strategy: the order in
// which a rule's body atoms are processed during adornment, which
// determines the binding patterns (and hence how much the transformed
// program prunes). It aliases analysis.SIPS, the strategy type of the
// shared adornment dataflow.
type SIPS = analysis.SIPS

const (
	// LeftToRight processes body atoms in source order — the textbook
	// strategy and the default.
	LeftToRight = analysis.LeftToRight
	// BoundFirst greedily picks the unprocessed atom with the most bound
	// argument positions (ties: edb before idb, then source order), so
	// adornments carry as many bindings as possible and built-in filters
	// run as early as their variables allow.
	BoundFirst = analysis.BoundFirst
)

// Transform rewrites prog for the given ground query atoms with the
// default left-to-right SIPS. Passing one query atom yields the per-tuple
// program (P^m_t, w^m_t) used by MagicCM and Magic^S CM (Algorithm 3);
// passing several yields the grouped program of Remark 1 used by
// Magic^G CM (one shared program whose seeds cover all sampled tuples).
//
// Every query atom must be ground and its predicate must be intensional in
// prog.
func Transform(prog *ast.Program, queries []ast.Atom) (*Transformed, error) {
	return TransformWith(prog, queries, LeftToRight)
}

// TransformWith is Transform with an explicit SIPS. Proposition 4.4 holds
// for every strategy (the WD-graph projection is strategy-independent);
// strategies differ only in how much irrelevant derivation the transformed
// program avoids.
func TransformWith(prog *ast.Program, queries []ast.Atom, sips SIPS) (*Transformed, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("magic: no query atoms")
	}
	if prog.HasNegation() {
		// The paper's CM semantics (the WD graph) is defined for positive
		// programs; the evaluation engine supports stratified negation but
		// the Magic-Sets rewriting here does not.
		return nil, fmt.Errorf("magic: program uses negation; CM requires a positive program")
	}
	idb := map[string]bool{}
	for _, r := range prog.Rules {
		idb[r.Head.Predicate] = true
	}
	out := &Transformed{Program: ast.NewProgram(), queryRels: map[string]bool{}, origEDB: map[string]bool{}}
	for _, p := range prog.EDBs() {
		out.origEDB[p] = true
	}

	type adornedGoal struct {
		pred string
		a    Adornment
	}
	seen := map[adornedGoal]bool{}
	var worklist []adornedGoal

	enqueue := func(g adornedGoal) {
		if !seen[g] {
			seen[g] = true
			worklist = append(worklist, g)
		}
	}

	// Seeds: one rule m@p^b..b(X1,...,Xn) :- q@p^b..b(X1,...,Xn) per query
	// predicate p, and the corresponding adorned goal; each distinct query
	// atom becomes a fact of its query relation q@p^b..b, appended after
	// every other rule. (The paper seeds the body-less magic fact
	// m@p^b..b(c...) instead; the seed rule derives the same facts one
	// round later, and keeps the rest of the program free of the query's
	// constants. The paper also adds a boolean query rule
	// Q() :- p^b..b(c...); it carries no probability mass and no WD-graph
	// content, so we track the adorned query atom directly instead.)
	var queryFacts []ast.Rule
	queryFact := map[string]bool{}
	for _, q := range queries {
		if !q.IsGround() {
			return nil, fmt.Errorf("magic: query atom %s is not ground", q)
		}
		if !idb[q.Predicate] {
			return nil, fmt.Errorf("magic: query predicate %s is not intensional", q.Predicate)
		}
		a := AllBound(q.Arity())
		out.Queries = append(out.Queries, q.Rename(AdornedPred(q.Predicate, a)))
		if g := (adornedGoal{q.Predicate, a}); !seen[g] {
			enqueue(g)
			out.queryRels[QueryPred(q.Predicate, a)] = true
			vars := make([]ast.Term, q.Arity())
			for j := range vars {
				vars[j] = ast.V("X" + strconv.Itoa(j+1))
			}
			out.Program.Add(ast.Rule{
				Label: "seed" + strconv.Itoa(len(out.Program.Rules)+1),
				Prob:  1,
				Head:  ast.NewAtom(MagicPred(q.Predicate, a), vars...),
				Body:  []ast.Atom{ast.NewAtom(QueryPred(q.Predicate, a), slices.Clone(vars)...)},
			})
			out.Meta = append(out.Meta, RuleMeta{Kind: SeedRule})
		}
		fact := q.Rename(QueryPred(q.Predicate, a))
		if key := fact.String(); !queryFact[key] {
			queryFact[key] = true
			queryFacts = append(queryFacts, ast.Rule{Label: "q" + strconv.Itoa(len(queryFacts)+1), Prob: 1, Head: fact})
		}
	}

	nMagic := 0
	// magicSeen dedups generated magic rules by their canonical form:
	// identical probability-1 magic rules are redundant (they derive the
	// same facts and are invisible to the WD graph). Self-supporting magic
	// rules — head syntactically among the body atoms, e.g.
	// m@tc@bf(X) :- m@tc@bf(X) — can never derive anything new and are
	// dropped outright.
	magicSeen := map[string]bool{}
	emitMagicRule := func(head ast.Atom, body []ast.Atom) {
		for _, b := range body {
			if b.Equal(head) {
				return
			}
		}
		sig := ast.CanonicalSig(head, body)
		if magicSeen[sig] {
			return
		}
		magicSeen[sig] = true
		nMagic++
		out.Program.Add(ast.Rule{
			Label: "mg" + strconv.Itoa(nMagic),
			Prob:  1,
			Head:  head,
			Body:  cloneAtoms(body),
		})
		out.Meta = append(out.Meta, RuleMeta{Kind: MagicRule})
	}
	for len(worklist) > 0 {
		goal := worklist[0]
		worklist = worklist[1:]
		for _, r := range prog.RulesFor(goal.pred) {
			// Modified rule: head^a :- m@head^a(bound head terms), body*...
			bound := map[string]bool{}
			for _, pos := range goal.a.BoundPositions() {
				t := r.Head.Terms[pos]
				if t.IsVar() {
					bound[t.Name] = true
				}
			}
			magicAtom := magicAtomFor(r.Head, goal.a)
			mod := ast.Rule{
				Label: r.Label + "@" + string(goal.a),
				Prob:  r.Prob,
				Head:  r.Head.Rename(AdornedPred(goal.pred, goal.a)),
				Body:  []ast.Atom{magicAtom},
			}
			// keep records, in the engine's positive-atom index space (the
			// magic atom is positive index 0; built-ins are filters and
			// have no index), which body positions carry original atoms.
			keep := make([]int, 0, len(r.Body))
			posIdx := 1
			// prefix holds the processed body atoms in their transformed
			// (adorned or plain) form, for magic-rule bodies.
			prefix := []ast.Atom{magicAtom}
			for _, b := range orderBody(r.Body, bound, sips, idb) {
				if ast.IsBuiltin(b.Predicate) {
					mod.Body = append(mod.Body, b)
					prefix = append(prefix, b)
					continue
				}
				if idb[b.Predicate] {
					ba := adornmentFor(b, bound)
					enqueue(adornedGoal{b.Predicate, ba})
					// Magic rule for this body occurrence:
					//   m@B^ba(bound terms of B) :- prefix...
					// (0-ary magic predicates, for all-free adornments, are
					// valid and handled uniformly.)
					emitMagicRule(magicAtomFor(b, ba), prefix)
					adorned := b.Rename(AdornedPred(b.Predicate, ba))
					keep = append(keep, posIdx)
					posIdx++
					mod.Body = append(mod.Body, adorned)
					prefix = append(prefix, adorned)
				} else {
					keep = append(keep, posIdx)
					posIdx++
					mod.Body = append(mod.Body, b)
					prefix = append(prefix, b)
				}
				// Full SIPS: after an atom is processed all its variables
				// are bound.
				for _, v := range b.Vars(nil) {
					bound[v] = true
				}
			}
			out.Program.Add(mod)
			out.Meta = append(out.Meta, RuleMeta{
				Kind:       Modified,
				Origin:     r.Label,
				OriginVars: r.Vars(),
				OriginProb: r.Prob,
				KeepBody:   keep,
			})
		}
	}
	n := len(out.Program.Rules)
	out.shape = ast.NewProgram(out.Program.Rules[:n:n]...)
	for _, f := range queryFacts {
		out.Program.Add(f)
		out.Meta = append(out.Meta, RuleMeta{Kind: QueryFact})
	}
	if err := out.Program.Validate(); err != nil {
		return nil, fmt.Errorf("magic: transformed program invalid: %w", err)
	}
	return out, nil
}

// orderBody returns the body atoms in SIPS processing order; the ordering
// logic lives in internal/analysis (OrderBody) so the analyzer's dataflow
// and the transformation agree byte-for-byte.
func orderBody(body []ast.Atom, bound map[string]bool, sips SIPS, idb map[string]bool) []ast.Atom {
	return analysis.OrderBody(body, bound, sips, idb)
}

// magicAtomFor builds the magic atom m@pred^a(terms at bound positions).
func magicAtomFor(a ast.Atom, ad Adornment) ast.Atom {
	var terms []ast.Term
	for _, pos := range ad.BoundPositions() {
		terms = append(terms, a.Terms[pos])
	}
	return ast.Atom{Predicate: MagicPred(a.Predicate, ad), Terms: terms}
}

func cloneAtoms(atoms []ast.Atom) []ast.Atom {
	out := make([]ast.Atom, len(atoms))
	for i, a := range atoms {
		out[i] = a.Clone()
	}
	return out
}
