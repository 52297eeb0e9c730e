package magic

import (
	"fmt"
	"strconv"

	"contribmax/internal/analysis"
	"contribmax/internal/ast"
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
	// SeedRule rules are the body-less magic seed facts m@q^b..b(c...)
	// that trigger the evaluation; probability 1.
	SeedRule
)

func (k RuleKind) String() string {
	switch k {
	case Modified:
		return "modified"
	case MagicRule:
		return "magic"
	case SeedRule:
		return "seed"
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
	// Program is the transformed program (P^m, w^m). Rule probabilities
	// follow Definition 4.3.
	Program *ast.Program
	// Meta is parallel to Program.Rules.
	Meta []RuleMeta
	// Queries holds, for each input query atom, its adorned counterpart in
	// the transformed program (the fact t^m whose derivation answers the
	// query).
	Queries []ast.Atom
	// querySeed[q] is the index of query q's seed rule in Program.Rules
	// (equal queries share one seed rule).
	querySeed []int
	// origEDB records the edb predicates of the origin program.
	origEDB map[string]bool
}

// IsMagicPred reports whether pred is a magic predicate of this program.
func (t *Transformed) IsMagicPred(pred string) bool {
	_, _, isMagic, ok := SplitAdorned(pred)
	return ok && isMagic
}

// OrigPred maps a transformed predicate name to the original predicate
// name: adorned predicates map to their origin, plain (edb) predicates map
// to themselves, and magic predicates return ok=false (they have no
// counterpart in the origin program's WD graph).
func (t *Transformed) OrigPred(pred string) (string, bool) {
	orig, _, isMagic, ok := SplitAdorned(pred)
	if !ok {
		return pred, true
	}
	if isMagic {
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
	out := &Transformed{Program: ast.NewProgram(), origEDB: map[string]bool{}}
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

	// Seeds: one body-less rule m@q^b..b(c1,...,cn) per query atom, and the
	// corresponding adorned goal. (The paper also adds a boolean query rule
	// Q() :- q^b..b(c...); it carries no probability mass and no WD-graph
	// content, so we track the adorned query atom directly instead.)
	seedRule := map[string]int{}
	for _, q := range queries {
		if !q.IsGround() {
			return nil, fmt.Errorf("magic: query atom %s is not ground", q)
		}
		if !idb[q.Predicate] {
			return nil, fmt.Errorf("magic: query predicate %s is not intensional", q.Predicate)
		}
		a := AllBound(q.Arity())
		enqueue(adornedGoal{q.Predicate, a})
		out.Queries = append(out.Queries, q.Rename(AdornedPred(q.Predicate, a)))
		seed := q.Rename(MagicPred(q.Predicate, a))
		i, ok := seedRule[seed.String()]
		if !ok {
			i = len(out.Program.Rules)
			seedRule[seed.String()] = i
			out.Program.Add(ast.Rule{
				Label: "seed" + strconv.Itoa(i+1),
				Prob:  1,
				Head:  seed,
			})
			out.Meta = append(out.Meta, RuleMeta{Kind: SeedRule})
		}
		out.querySeed = append(out.querySeed, i)
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
	if err := out.Program.Validate(); err != nil {
		return nil, fmt.Errorf("magic: transformed program invalid: %w", err)
	}
	return out, nil
}

// Rebind returns the program of other ground atoms qs of t's query
// predicate. Only the seed rules and the queries depend on the query
// atoms' constants, so the result shares every other rule and the edb set
// with t (and Meta when qs is one atom), and equals TransformWith of qs
// over t's origin program and SIPS: one seed rule per distinct atom, in
// order, then t's magic and modified rules. It rejects a multi-query t
// (Magic^G's) and an atom of another predicate or arity or with
// variables.
func (t *Transformed) Rebind(qs ...ast.Atom) (*Transformed, error) {
	if len(t.Queries) != 1 || len(t.Meta) == 0 || t.Meta[0].Kind != SeedRule {
		return nil, fmt.Errorf("magic: rebind needs a single-query program, have %d queries", len(t.Queries))
	}
	if len(qs) == 0 {
		return nil, fmt.Errorf("magic: no query atoms")
	}
	orig, _ := t.OrigPred(t.Queries[0].Predicate)
	seedPred := t.Program.Rules[0].Head.Predicate
	out := &Transformed{Meta: t.Meta, origEDB: t.origEDB}
	var rules []ast.Rule
	seedRule := map[string]int{}
	for _, q := range qs {
		if q.Predicate != orig || q.Arity() != t.Queries[0].Arity() {
			return nil, fmt.Errorf("magic: cannot rebind a %s/%d program to %s", orig, t.Queries[0].Arity(), q)
		}
		if !q.IsGround() {
			return nil, fmt.Errorf("magic: query atom %s is not ground", q)
		}
		out.Queries = append(out.Queries, q.Rename(t.Queries[0].Predicate))
		seed := q.Rename(seedPred)
		i, ok := seedRule[seed.String()]
		if !ok {
			i = len(rules)
			seedRule[seed.String()] = i
			rule := t.Program.Rules[0]
			rule.Label, rule.Head = "seed"+strconv.Itoa(i+1), seed
			rules = append(rules, rule)
		}
		out.querySeed = append(out.querySeed, i)
	}
	if len(rules) > 1 {
		out.Meta = make([]RuleMeta, 0, len(rules)+len(t.Meta)-1)
		for range rules {
			out.Meta = append(out.Meta, t.Meta[0])
		}
		out.Meta = append(out.Meta, t.Meta[1:]...)
	}
	out.Program = ast.NewProgram(append(rules, t.Program.Rules[1:]...)...)
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
