package analysis

import (
	"sort"
	"strconv"
	"strings"

	"contribmax/internal/ast"
	"contribmax/internal/db"
)

// Options configures an analysis run.
type Options struct {
	// EDB maps extensional predicate names to their arities, typically
	// harvested from a loaded database. When nil, the analyzer assumes
	// nothing about the extensional schema: body-only predicates are taken
	// to be legitimate edb relations and CM008 is never reported.
	EDB map[string]int
	// Roots lists the query/target predicates the program is evaluated
	// for. When non-empty, the analyzer additionally reports rules that
	// cannot contribute to any root (CM009) and Magic-Sets free-variable
	// explosions along the roots' dependency cone (CM011). Targets that no
	// rule defines are reported as CM008.
	Roots []string
}

// OptionsFor derives the configuration for analyzing a program that is
// solved over database for targets: the database's relations give the edb
// schema, and the targets' predicates, in order of first occurrence, the
// roots. Every solve front end gates its requests with it.
func OptionsFor(database *db.Database, targets []ast.Atom) Options {
	edb := map[string]int{}
	for _, name := range database.RelationNames() {
		if rel, ok := database.Lookup(name); ok {
			edb[name] = rel.Arity()
		}
	}
	var roots []string
	seen := map[string]bool{}
	for _, a := range targets {
		if !seen[a.Predicate] {
			seen[a.Predicate] = true
			roots = append(roots, a.Predicate)
		}
	}
	return Options{EDB: edb, Roots: roots}
}

// Analyze runs every analysis pass over prog and returns the diagnostics
// sorted by source position. A nil or empty program yields none.
//
// Error-severity diagnostics are a superset of ast.Program.Validate's
// rejections; a program with no Error diagnostics evaluates without
// arity/safety panics and stratifies.
func Analyze(prog *ast.Program, opts Options) []Diagnostic {
	if prog == nil {
		return nil
	}
	l := &list{}
	g := NewDepGraph(prog)
	rec := ClassifyRecursion(prog, g)
	checkRules(l, prog)
	checkArities(l, prog, opts)
	checkDefinitions(l, prog, g, opts)
	checkStratification(l, g)
	checkAdornments(l, prog, g, opts)
	checkRecursionShape(l, prog, g, rec, opts)
	checkHierarchy(l, prog, g, rec, opts)
	checkNeverFires(l, prog, opts)
	checkUnusedRelations(l, prog, g, opts)
	Sort(l.diags)
	return l.diags
}

// checkRules runs the per-rule passes: labels, probabilities, range
// restriction, safety, built-in misuse, and singleton variables.
func checkRules(l *list, prog *ast.Program) {
	labelAt := map[string]ast.Pos{}
	for _, r := range prog.Rules {
		span := r.Span()

		// Labels (CM001).
		if r.Label == "" {
			l.errorf(CodeLabel, r.Pos, span, "rule has an empty label")
		} else if first, dup := labelAt[r.Label]; dup {
			d := l.errorf(CodeLabel, r.Pos, span, "duplicate rule label %q", r.Label)
			d.Related = append(d.Related, Related{Pos: first, Message: "first defined here"})
		} else {
			labelAt[r.Label] = r.Pos
		}

		// Probabilities (CM002, CM003).
		if r.Prob < 0 || r.Prob > 1 || r.Prob != r.Prob {
			l.errorf(CodeProbRange, r.Pos, span, "probability %g of rule %s is outside [0,1]", r.Prob, r.Label)
		} else if r.Prob == 0 {
			l.warnf(CodeDeadRule, r.Pos, span, "rule %s has probability 0 and can never fire", r.Label)
		}

		// Head shape (CM007).
		if r.Head.Negated {
			l.errorf(CodeBuiltinMisuse, r.Head.Pos, span, "rule %s has a negated head", r.Label)
		}
		if ast.IsBuiltin(r.Head.Predicate) {
			l.errorf(CodeBuiltinMisuse, r.Head.Pos, span, "built-in predicate %s cannot be a rule head", r.Head.Predicate)
		}

		// Range restriction (CM004) and safety (CM005), reported per
		// offending variable at the variable's own position.
		binding := map[string]bool{}
		for _, b := range r.Body {
			if b.Negated || ast.IsBuiltin(b.Predicate) {
				continue
			}
			for _, t := range b.Terms {
				if t.IsVar() {
					binding[t.Name] = true
				}
			}
		}
		reported := map[string]bool{}
		for _, t := range r.Head.Terms {
			if t.IsVar() && !binding[t.Name] && !reported[t.Name] {
				reported[t.Name] = true
				if r.IsFact() {
					l.errorf(CodeRangeRestriction, t.Pos, span,
						"fact %s contains variable %s (facts must be ground)", r.Label, t.Name)
				} else {
					l.errorf(CodeRangeRestriction, t.Pos, span,
						"head variable %s of rule %s is not bound by a positive body atom", t.Name, r.Label)
				}
			}
		}
		for _, b := range r.Body {
			builtin := ast.IsBuiltin(b.Predicate)
			if builtin {
				if b.Arity() != 2 {
					l.errorf(CodeBuiltinMisuse, b.Pos, span,
						"built-in %s must be binary, used with %d argument(s)", b.Predicate, b.Arity())
				}
				if b.Negated {
					l.errorf(CodeBuiltinMisuse, b.Pos, span,
						"negated built-in %s (use the complementary comparison)", b.Predicate)
				}
			}
			if !b.Negated && !builtin {
				continue
			}
			what := "negated atom"
			if builtin {
				what = "built-in " + b.Predicate
			}
			for _, t := range b.Terms {
				if t.IsVar() && !binding[t.Name] && !reported[t.Name] {
					reported[t.Name] = true
					l.errorf(CodeUnsafe, t.Pos, span,
						"variable %s of %s in rule %s is not bound by a positive body atom", t.Name, what, r.Label)
				}
			}
		}

		// Singleton variables (CM012): one occurrence across the whole
		// rule is usually a typo; _-prefixed names opt out.
		count := map[string]int{}
		firstAt := map[string]ast.Pos{}
		countAtom := func(a ast.Atom) {
			for _, t := range a.Terms {
				if !t.IsVar() {
					continue
				}
				count[t.Name]++
				if count[t.Name] == 1 {
					firstAt[t.Name] = t.Pos
				}
			}
		}
		countAtom(r.Head)
		for _, b := range r.Body {
			countAtom(b)
		}
		for _, v := range sortedVarNames(count) {
			if count[v] == 1 && !strings.HasPrefix(v, "_") && !reported[v] {
				l.infof(CodeSingletonVar, firstAt[v], span,
					"variable %s occurs only once in rule %s (prefix with _ if intentional)", v, r.Label)
			}
		}
	}
}

// checkArities verifies every predicate keeps one arity across rule heads,
// bodies, and the extensional database (CM006).
func checkArities(l *list, prog *ast.Program, opts Options) {
	type use struct {
		arity int
		pos   ast.Pos
		what  string
	}
	first := map[string]use{}
	for p, a := range opts.EDB {
		first[p] = use{arity: a, what: "extensional database"}
	}
	check := func(a ast.Atom, span ast.Span) {
		if ast.IsBuiltin(a.Predicate) {
			return
		}
		if prev, ok := first[a.Predicate]; ok {
			if prev.arity != a.Arity() {
				d := l.errorf(CodeArity, a.Pos, span,
					"predicate %s used with arity %d, previously %d", a.Predicate, a.Arity(), prev.arity)
				what := prev.what
				if what == "" {
					what = "first use"
				}
				d.Related = append(d.Related, Related{Pos: prev.pos, Message: what})
			}
			return
		}
		first[a.Predicate] = use{arity: a.Arity(), pos: a.Pos}
	}
	for _, r := range prog.Rules {
		span := r.Span()
		check(r.Head, span)
		for _, b := range r.Body {
			check(b, span)
		}
	}
}

// checkDefinitions reports undefined body predicates (CM008, needs EDB
// info), undefined roots (CM008), and rules unreachable from the roots
// (CM009).
func checkDefinitions(l *list, prog *ast.Program, g *DepGraph, opts Options) {
	if opts.EDB != nil {
		seen := map[string]bool{}
		for _, r := range prog.Rules {
			for _, b := range r.Body {
				p := b.Predicate
				if ast.IsBuiltin(p) || g.IDB[p] || seen[p] {
					continue
				}
				if _, ok := opts.EDB[p]; ok {
					continue
				}
				seen[p] = true
				l.warnf(CodeUndefinedPred, b.Pos, r.Span(),
					"predicate %s has no rules and no facts in the database", p)
			}
		}
	}
	if len(opts.Roots) == 0 {
		return
	}
	for _, root := range opts.Roots {
		if !g.IDB[root] {
			if _, edb := opts.EDB[root]; !edb {
				l.warnf(CodeUndefinedPred, ast.Pos{}, ast.Span{},
					"query/target predicate %s is not defined by any rule%s", root, edbHint(opts))
			}
		}
	}
	deps := g.DependenciesOf(opts.Roots)
	for _, r := range prog.Rules {
		if !deps[r.Head.Predicate] {
			l.warnf(CodeUnreachable, r.Pos, r.Span(),
				"rule %s (head %s) cannot contribute to the query/target predicates", r.Label, r.Head.Predicate)
		}
	}
}

func edbHint(opts Options) string {
	if opts.EDB == nil {
		return ""
	}
	return " and has no facts in the database"
}

// checkStratification reports negation through recursion (CM010) with the
// offending cycle spelled out.
func checkStratification(l *list, g *DepGraph) {
	cycle := g.NegativeCycle()
	if cycle == nil {
		return
	}
	neg := cycle.NegEdge()
	d := l.errorf(CodeNegativeCycle, neg.Pos, ast.Span{Start: neg.Pos, End: neg.Pos},
		"program is not stratifiable: recursion through negation (%s)", cycle)
	for _, e := range cycle.Edges {
		if e.Pos.IsValid() && e.Pos != neg.Pos {
			d.Related = append(d.Related, Related{Pos: e.Pos, Message: e.Head + " depends on " + e.Body + " here"})
		}
	}
}

// checkAdornments runs the shared adornment dataflow pass (ComputeFlow,
// the exact propagation internal/magic performs, full left-to-right SIPS)
// and reports two findings over its results: a recursive predicate reached
// with an all-free binding pattern, where the "relevant" subgraph
// degenerates to the full materialization and defeats the rewriting
// (CM011); and intensional argument positions that stay free in every
// binding pattern reaching them, which no query binding will ever restrict
// (CM013).
func checkAdornments(l *list, prog *ast.Program, g *DepGraph, opts Options) {
	if len(opts.Roots) == 0 {
		return
	}
	flow := ComputeFlow(prog, g, opts.Roots, LeftToRight)
	recursive := g.recursivePreds()
	warned := map[string]bool{}
	for _, oc := range flow.Occurrences {
		if !oc.IDB || !oc.Adornment.AllFree() {
			continue
		}
		if recursive[oc.Pred] && !warned[oc.Pred] {
			warned[oc.Pred] = true
			r := prog.Rules[oc.Rule]
			l.warnf(CodeFreeAdornment, oc.Pos, r.Span(),
				"magic sets: recursive predicate %s is reached with no bound arguments; the relevant subgraph degenerates to the full materialization", oc.Pred)
		}
	}

	// CM013: positions free in every reached binding pattern. Roots are
	// reached all-bound, so only strictly-inner predicates can qualify.
	for _, pred := range sortedPreds(flow.goalPreds()) {
		bound, ok := flow.BoundSomewhere(pred)
		if !ok || len(bound) == 0 {
			continue
		}
		var free []string
		for i, b := range bound {
			if !b {
				free = append(free, strconv.Itoa(i+1))
			}
		}
		if len(free) == 0 {
			continue
		}
		pos, span := predAnchor(prog, pred)
		l.infof(CodeUnboundPosition, pos, span,
			"argument position(s) %s of predicate %s are never bound in any binding pattern reaching it; query bindings cannot restrict them",
			strings.Join(free, ", "), pred)
	}
}

// goalPreds returns the set of predicates the flow reached.
func (f *Flow) goalPreds() map[string]bool {
	out := make(map[string]bool, len(f.Goals))
	for p := range f.Goals {
		out[p] = true
	}
	return out
}

// predAnchor finds the source anchor for a predicate-level finding: the
// head of its first defining rule.
func predAnchor(prog *ast.Program, pred string) (ast.Pos, ast.Span) {
	for _, r := range prog.Rules {
		if r.Head.Predicate == pred {
			return r.Head.Pos, r.Span()
		}
	}
	return ast.Pos{}, ast.Span{}
}

// checkRecursionShape reports nonlinear recursion inside the query cone
// (CM015) and mutually recursive components (CM017).
func checkRecursionShape(l *list, prog *ast.Program, g *DepGraph, rec *Recursion, opts Options) {
	var cone map[string]bool
	if len(opts.Roots) > 0 {
		cone = g.DependenciesOf(opts.Roots)
	}
	for _, scc := range rec.SCCs {
		if scc.Mutual && len(scc.Rules) > 0 {
			r := prog.Rules[scc.Rules[0]]
			l.infof(CodeMutualRecursion, r.Pos, r.Span(),
				"predicates %s are mutually recursive (one strongly connected component)",
				strings.Join(scc.Preds, ", "))
		}
		if scc.Kind != NonlinearRecursive || cone == nil || !inCone(scc.Preds, cone) {
			continue
		}
		r := prog.Rules[scc.NonlinearRule]
		b := r.Body[scc.NonlinearAtom]
		l.infof(CodeNonlinearRecursion, b.Pos, r.Span(),
			"rule %s makes %s nonlinearly recursive (two or more recursive body atoms); semi-naive deltas join full recursive relations and the magic cone grows super-linearly",
			r.Label, strings.Join(scc.Preds, ", "))
	}
}

func inCone(preds []string, cone map[string]bool) bool {
	for _, p := range preds {
		if cone[p] {
			return true
		}
	}
	return false
}

// checkHierarchy classifies each query root's cone and reports whether an
// exact lifted tier applies (CM014) or sampling is required because the
// cone is non-recursive yet non-hierarchical (CM018). Recursive cones get
// neither: recursion already implies sampling and is reported through
// CM011/CM015.
func checkHierarchy(l *list, prog *ast.Program, g *DepGraph, rec *Recursion, opts Options) {
	if len(opts.Roots) == 0 {
		return
	}
	for _, res := range AnalyzeHierarchy(prog, g, opts.Roots, rec) {
		pos, span := predAnchor(prog, res.Root)
		if res.Hierarchical {
			if !g.IDB[res.Root] {
				// Extensional (rule-less) root: trivially hierarchical when
				// it names a known database relation; silent otherwise —
				// unknown predicates are the reachability passes' finding.
				if _, known := opts.EDB[res.Root]; known {
					l.infof(CodeHierarchical, pos, span,
						"query predicate %s is extensional (no rules); exact evaluation reads the fact probability directly", res.Root)
				}
				continue
			}
			l.infof(CodeHierarchical, pos, span,
				"query predicate %s spans a hierarchical non-recursive sub-program; exact lifted evaluation is polynomial", res.Root)
			continue
		}
		if res.Rule < 0 {
			// Recursive cone: not a hierarchy finding.
			continue
		}
		if res.Pos.IsValid() {
			pos = res.Pos
			span = prog.Rules[res.Rule].Span()
		}
		l.infof(CodeNonHierarchical, pos, span,
			"query predicate %s is non-recursive but not hierarchical (%s); exact lifted evaluation may be exponential, sampling required", res.Root, res.Reason)
	}
}

// checkNeverFires reports rules with a transitively underivable positive
// body predicate (CM016, needs EDB info). Subsumes CM008 transitively:
// CM008 flags the missing predicate itself, CM016 every rule the gap
// kills downstream.
func checkNeverFires(l *list, prog *ast.Program, opts Options) {
	if opts.EDB == nil {
		return
	}
	for _, nf := range NeverFiringRules(prog, opts.EDB) {
		r := prog.Rules[nf.Rule]
		b := r.Body[nf.Body]
		l.warnf(CodeNeverFires, b.Pos, r.Span(),
			"rule %s can never fire: predicate %s is transitively underivable (no facts and no derivable rule)", r.Label, nf.Pred)
	}
}

// checkUnusedRelations reports database relations no rule body, rule
// head, or query root ever mentions (CM019, needs EDB info).
func checkUnusedRelations(l *list, prog *ast.Program, g *DepGraph, opts Options) {
	if opts.EDB == nil {
		return
	}
	used := map[string]bool{}
	for _, r := range prog.Rules {
		used[r.Head.Predicate] = true
		for _, b := range r.Body {
			used[b.Predicate] = true
		}
	}
	for _, root := range opts.Roots {
		used[root] = true
	}
	rels := make([]string, 0, len(opts.EDB))
	for p := range opts.EDB {
		if !used[p] {
			rels = append(rels, p)
		}
	}
	sort.Strings(rels)
	for _, p := range rels {
		l.infof(CodeUnusedRelation, ast.Pos{}, ast.Span{},
			"database relation %s (arity %d) is never referenced by any rule or query", p, opts.EDB[p])
	}
}

// recursivePreds marks predicates on a dependency cycle (an edge to a
// predicate in their own strongly connected component).
func (g *DepGraph) recursivePreds() map[string]bool {
	comp := g.sccs()
	rec := map[string]bool{}
	for _, e := range g.Edges {
		if comp[e.Head] == comp[e.Body] {
			rec[e.Head] = true
			rec[e.Body] = true
		}
	}
	return rec
}

func sortedVarNames(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	// Order by name for determinism; the list is tiny.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
