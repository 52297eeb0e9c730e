package magic_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/magic"
	"contribmax/internal/parser"
	"contribmax/internal/wdgraph"
)

func mustProgram(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func mustDB(t *testing.T, facts string) *db.Database {
	t.Helper()
	fs, err := parser.ParseFacts(facts)
	if err != nil {
		t.Fatalf("parse facts: %v", err)
	}
	d := db.NewDatabase()
	for _, f := range fs {
		d.MustInsertAtom(f)
	}
	return d
}

func atom(t *testing.T, s string) ast.Atom {
	t.Helper()
	a, err := parser.ParseAtom(s)
	if err != nil {
		t.Fatalf("parse atom %q: %v", s, err)
	}
	return a
}

const tcProgram = `
	1.0 r1: tc(X, Y) :- e(X, Y).
	0.8 r2: tc(X, Y) :- tc(X, Z), tc(Z, Y).
`

func TestTransformStructure(t *testing.T) {
	prog := mustProgram(t, tcProgram)
	tr, err := magic.Transform(prog, []ast.Atom{atom(t, "tc(a, b)")})
	if err != nil {
		t.Fatal(err)
	}
	var modified, magicRules, seeds, queries int
	for i, m := range tr.Meta {
		r := tr.Program.Rules[i]
		switch m.Kind {
		case magic.Modified:
			modified++
			if r.Prob != m.OriginProb {
				t.Errorf("modified rule %s prob %g != origin prob %g", r.Label, r.Prob, m.OriginProb)
			}
			if m.Origin != "r1" && m.Origin != "r2" {
				t.Errorf("unexpected origin %q", m.Origin)
			}
			// Definition 4.3: modified rules carry the origin weight.
			orig, _ := prog.RuleByLabel(m.Origin)
			if r.Prob != orig.Prob {
				t.Errorf("rule %s: prob %g, want origin's %g", r.Label, r.Prob, orig.Prob)
			}
		case magic.MagicRule, magic.SeedRule, magic.QueryFact:
			switch m.Kind {
			case magic.SeedRule:
				seeds++
			case magic.QueryFact:
				queries++
			default:
				magicRules++
			}
			if r.Prob != 1 {
				t.Errorf("rule %s (%v): prob %g, want 1", r.Label, m.Kind, r.Prob)
			}
		}
	}
	if seeds != 1 || queries != 1 {
		t.Errorf("seeds = %d, query facts = %d, want 1 each", seeds, queries)
	}
	if got := tr.Program.Rules[len(tr.Program.Rules)-1].String(); got != "1 q1: q@tc@bb(a, b)." {
		t.Errorf("last rule %s, want the query fact", got)
	}
	if got, want := len(tr.Shape().Rules), len(tr.Program.Rules)-1; got != want {
		t.Errorf("shape has %d rules, want %d", got, want)
	}
	if modified == 0 || magicRules == 0 {
		t.Errorf("modified=%d magic=%d, want both positive", modified, magicRules)
	}
	if len(tr.Queries) != 1 || !strings.HasPrefix(tr.Queries[0].Predicate, "tc@") {
		t.Errorf("queries = %v", tr.Queries)
	}
}

func TestTransformRejectsBadQueries(t *testing.T) {
	prog := mustProgram(t, tcProgram)
	if _, err := magic.Transform(prog, nil); err == nil {
		t.Error("want error for empty query set")
	}
	if _, err := magic.Transform(prog, []ast.Atom{ast.NewAtom("tc", ast.V("X"), ast.C("b"))}); err == nil {
		t.Error("want error for non-ground query")
	}
	if _, err := magic.Transform(prog, []ast.Atom{atom(t, "e(a, b)")}); err == nil {
		t.Error("want error for edb query")
	}
}

// evalMagic evaluates the transformed program over a scratch database
// sharing edbs, building the projected WD graph.
func evalMagic(t *testing.T, prog *ast.Program, d *db.Database, tr *magic.Transformed, gate engine.FireGate) *wdgraph.Graph {
	t.Helper()
	scratch := d.CloneSchema()
	for _, pred := range prog.EDBs() {
		if rel, ok := d.Lookup(pred); ok {
			scratch.Attach(rel)
		}
	}
	eng, err := engine.New(tr.Program, scratch)
	if err != nil {
		t.Fatal(err)
	}
	b := wdgraph.NewBuilder(tr.Projection())
	if _, err := eng.Run(engine.Options{Listener: b.Listener(), Gate: gate}); err != nil {
		t.Fatal(err)
	}
	return b.Graph()
}

// graphSignature renders a graph as a canonical multiset of edges over fact
// identities, so two graphs can be compared for isomorphism in the sense of
// Proposition 4.4 (rule nodes identified by label + endpoints).
func graphSignature(g *wdgraph.Graph, symbols *db.SymbolTable, restrictTo map[string]bool) []string {
	name := func(id wdgraph.NodeID) string {
		n := g.Node(id)
		if n.Kind == wdgraph.RuleNode {
			return "" // expanded via rule node's own edges
		}
		var sb strings.Builder
		sb.WriteString(n.Pred)
		sb.WriteByte('(')
		for i, s := range n.Tuple {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(symbols.Name(s))
		}
		sb.WriteByte(')')
		return sb.String()
	}
	var out []string
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(wdgraph.NodeID(i))
		if n.Kind != wdgraph.RuleNode {
			continue
		}
		// Render the rule instantiation as label: body... => head@weight.
		var bodies []string
		for _, u := range g.InEdges(wdgraph.NodeID(i)) {
			bodies = append(bodies, name(u))
		}
		sort.Strings(bodies)
		outs := g.OutEdges(wdgraph.NodeID(i))
		if len(outs) != 1 {
			out = append(out, fmt.Sprintf("BAD rule node %d with %d out-edges", i, len(outs)))
			continue
		}
		head := name(outs[0])
		if restrictTo != nil && !restrictTo[head] {
			continue
		}
		out = append(out, fmt.Sprintf("%s: %s => %s @%g", n.Pred, strings.Join(bodies, ","), head, g.Weight(wdgraph.NodeID(i))))
	}
	sort.Strings(out)
	return out
}

// TestMagicGraphIsomorphicToReachableSubgraph is the core Proposition 4.4
// check: for every idb tuple t, the graph built from (P^m_t, w^m_t),
// restricted to the part backward-reachable from t (the only part an RR
// walk can ever see), must equal the subgraph of the full WD graph that is
// backward-reachable from t. The unrestricted magic graph may contain extra
// downstream instantiations — the paper's "analogous (though not
// identical)" — which TestMagicGraphSupersetOfReachable covers.
func TestMagicGraphIsomorphicToReachableSubgraph(t *testing.T) {
	progs := []struct {
		name    string
		program string
		facts   string
	}{
		{
			"tc-nonlinear", tcProgram,
			`e(a, b). e(b, c). e(c, d). e(x, y).`,
		},
		{
			"tc-cycle", tcProgram,
			`e(a, b). e(b, a). e(b, c).`,
		},
		{
			"multi-rule", `
				0.7 s1: deals(A, B) :- exports(A, C), imports(B, C).
				0.8 s2: deals(A, B) :- deals(B, A).
				0.5 s3: deals(A, B) :- deals(A, F), deals(F, B).
			`,
			`exports(fr, wine). imports(de, wine). imports(us, wine).
			 exports(cu, tob). imports(in, tob). exports(fr, oil). imports(pk, oil).`,
		},
	}
	for _, tc := range progs {
		t.Run(tc.name, func(t *testing.T) {
			prog := mustProgram(t, tc.program)
			full := mustDB(t, tc.facts)
			fullGraph, _, err := wdgraph.Build(prog, full, wdgraph.BuildConfig{})
			if err != nil {
				t.Fatal(err)
			}
			syms := full.Symbols()

			// Check every derived idb tuple.
			for _, idb := range prog.IDBs() {
				for _, target := range full.Facts(idb) {
					target := target
					tr, err := magic.Transform(prog, []ast.Atom{target})
					if err != nil {
						t.Fatalf("%s: %v", target, err)
					}
					mg := evalMagic(t, prog, full, tr, nil)

					// Expected: rule nodes of the full graph backward-
					// reachable from target.
					root, ok := fullGraph.FactID(target.Predicate, mustTuple(t, full, target))
					if !ok {
						t.Fatalf("target %s missing from full graph", target)
					}
					reach := map[wdgraph.NodeID]bool{}
					w := wdgraph.NewWalker(fullGraph)
					w.ReverseClosure(root, func(v wdgraph.NodeID) { reach[v] = true })
					wantSig := sortedSigs(ruleSigs(fullGraph, syms, reach))

					// Restrict the magic graph to its own reverse closure
					// from the target.
					mroot, ok := mg.FactID(target.Predicate, mustTuple(t, full, target))
					if !ok {
						t.Fatalf("target %s missing from magic graph", target)
					}
					mreach := map[wdgraph.NodeID]bool{}
					mw := wdgraph.NewWalker(mg)
					mw.ReverseClosure(mroot, func(v wdgraph.NodeID) { mreach[v] = true })
					gotSig := sortedSigs(ruleSigs(mg, syms, mreach))
					if fmt.Sprint(gotSig) != fmt.Sprint(wantSig) {
						t.Errorf("target %s:\n got %v\nwant %v", target, gotSig, wantSig)
					}

					// Superset property: every backward-reachable
					// instantiation of the full graph appears in the
					// (unrestricted) magic graph.
					all := ruleSigs(mg, syms, nil)
					for _, s := range wantSig {
						if !all[s] {
							t.Errorf("target %s: magic graph missing instantiation %s", target, s)
						}
					}
				}
			}
		})
	}
}

// ruleSigs renders the rule nodes of g present in reach.
func ruleSigs(g *wdgraph.Graph, symbols *db.SymbolTable, reach map[wdgraph.NodeID]bool) map[string]bool {
	name := func(id wdgraph.NodeID) string {
		n := g.Node(id)
		var sb strings.Builder
		sb.WriteString(n.Pred)
		sb.WriteByte('(')
		for i, s := range n.Tuple {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(symbols.Name(s))
		}
		sb.WriteByte(')')
		return sb.String()
	}
	out := map[string]bool{}
	for i := 0; i < g.NumNodes(); i++ {
		id := wdgraph.NodeID(i)
		if reach != nil && !reach[id] {
			continue
		}
		n := g.Node(id)
		if n.Kind != wdgraph.RuleNode {
			continue
		}
		var bodies []string
		for _, u := range g.InEdges(id) {
			bodies = append(bodies, name(u))
		}
		sort.Strings(bodies)
		head := name(g.OutEdges(id)[0])
		out[fmt.Sprintf("%s: %s => %s @%g", n.Pred, strings.Join(bodies, ","), head, g.Weight(id))] = true
	}
	return out
}

func sortedSigs(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func mustTuple(t *testing.T, d *db.Database, a ast.Atom) db.Tuple {
	t.Helper()
	tp, err := d.InternAtom(a)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestHashGateOrderIndependent pins the property that lets a Grounding's
// propagation draw the gate's verdicts: the verdict for an instantiation is
// a pure function of (seed, rule, bindings) — repeated queries, reversed
// query order, and a gate built from an identically compiled engine all
// agree.
func TestHashGateOrderIndependent(t *testing.T) {
	var _ engine.FireGate = (*magic.HashGate)(nil)

	prog := mustProgram(t, tcProgram)
	d := mustDB(t, `e(a, b). e(b, c). e(c, d).`)
	buildGate := func() (*magic.HashGate, *engine.Engine, *magic.Transformed) {
		tr, err := magic.Transform(prog, []ast.Atom{atom(t, "tc(a, d)")})
		if err != nil {
			t.Fatal(err)
		}
		scratch := d.CloneSchema()
		for _, pred := range prog.EDBs() {
			if rel, ok := d.Lookup(pred); ok {
				scratch.Attach(rel)
			}
		}
		eng, err := engine.New(tr.Program, scratch)
		if err != nil {
			t.Fatal(err)
		}
		return magic.NewHashGate(tr, eng, 0xfeedface), eng, tr
	}
	g1, eng, tr := buildGate()
	g2, _, _ := buildGate()

	// Synthetic queries: every rule, a spread of symbol bindings.
	type query struct {
		rule int
		vars []db.Sym
	}
	var queries []query
	for i := range tr.Meta {
		n := len(eng.RuleVarNames(i))
		for v := 0; v < 8; v++ {
			vars := make([]db.Sym, n)
			for j := range vars {
				vars[j] = db.Sym(v*7 + j)
			}
			queries = append(queries, query{rule: i, vars: vars})
		}
	}
	forward := make([]bool, len(queries))
	for i, q := range queries {
		forward[i] = g1.ShouldFire(q.rule, q.vars)
	}
	sawFalse := false
	for i := len(queries) - 1; i >= 0; i-- {
		q := queries[i]
		if got := g1.ShouldFire(q.rule, q.vars); got != forward[i] {
			t.Fatalf("query %d: reversed-order verdict %t, forward %t", i, got, forward[i])
		}
		if got := g2.ShouldFire(q.rule, q.vars); got != forward[i] {
			t.Fatalf("query %d: fresh gate verdict %t, forward %t", i, got, forward[i])
		}
		if !forward[i] {
			sawFalse = true
		}
	}
	if !sawFalse {
		t.Error("no query was ever vetoed; fixture exercises nothing")
	}
}

func TestHashGateDeterministicWithSeed(t *testing.T) {
	prog := mustProgram(t, tcProgram)
	d := mustDB(t, `e(a, b). e(b, c). e(c, d). e(a, c).`)
	build := func(seed uint64, par int) []string {
		tr, err := magic.Transform(prog, []ast.Atom{atom(t, "tc(a, d)")})
		if err != nil {
			t.Fatal(err)
		}
		scratch := d.CloneSchema()
		for _, pred := range prog.EDBs() {
			if rel, ok := d.Lookup(pred); ok {
				scratch.Attach(rel)
			}
		}
		eng, err := engine.New(tr.Program, scratch)
		if err != nil {
			t.Fatal(err)
		}
		b := wdgraph.NewBuilder(tr.Projection())
		gate := magic.NewHashGate(tr, eng, seed)
		if _, err := eng.Run(engine.Options{Listener: b.Listener(), Gate: gate, Parallelism: par}); err != nil {
			t.Fatal(err)
		}
		return graphSignature(b.Graph(), d.Symbols(), nil)
	}
	a1, a2 := build(42, 0), build(42, 0)
	if fmt.Sprint(a1) != fmt.Sprint(a2) {
		t.Errorf("same seed produced different graphs:\n%v\n%v", a1, a2)
	}
	// Magic^S sampling stays available — and identical — under parallel
	// evaluation: same seed, any Parallelism, same sampled graph.
	for _, par := range []int{2, 8} {
		if got := build(42, par); fmt.Sprint(got) != fmt.Sprint(a1) {
			t.Errorf("Parallelism=%d sampled graph diverges:\n%v\n%v", par, got, a1)
		}
	}
	if b1, b2 := build(7, 0), build(1042, 0); fmt.Sprint(b1) == fmt.Sprint(b2) && fmt.Sprint(a1) == fmt.Sprint(b1) {
		t.Log("note: different seeds produced identical graphs (possible but unlikely)")
	}
}

func TestSampledGraphIsSubsetOfUnsampled(t *testing.T) {
	prog := mustProgram(t, `
		0.9 r1: tc(X, Y) :- e(X, Y).
		0.5 r2: tc(X, Y) :- tc(X, Z), tc(Z, Y).
	`)
	d := mustDB(t, `e(a, b). e(b, c). e(c, d). e(a, c). e(b, d).`)
	target := atom(t, "tc(a, d)")
	tr, err := magic.Transform(prog, []ast.Atom{target})
	if err != nil {
		t.Fatal(err)
	}
	fullSig := map[string]bool{}
	for _, s := range graphSignature(evalMagic(t, prog, d, tr, nil), d.Symbols(), nil) {
		fullSig[s] = true
	}
	for seed := uint64(0); seed < 20; seed++ {
		tr2, _ := magic.Transform(prog, []ast.Atom{target})
		scratch := d.CloneSchema()
		for _, pred := range prog.EDBs() {
			if rel, ok := d.Lookup(pred); ok {
				scratch.Attach(rel)
			}
		}
		eng, err := engine.New(tr2.Program, scratch)
		if err != nil {
			t.Fatal(err)
		}
		b := wdgraph.NewBuilder(tr2.Projection())
		gate := magic.NewHashGate(tr2, eng, seed*0x9e3779b9+99)
		if _, err := eng.Run(engine.Options{Listener: b.Listener(), Gate: gate}); err != nil {
			t.Fatal(err)
		}
		for _, s := range graphSignature(b.Graph(), d.Symbols(), nil) {
			if !fullSig[s] {
				t.Errorf("seed %d: sampled graph has instantiation not in unsampled graph: %s", seed, s)
			}
		}
	}
}

func TestGroupedTransformCoversAllTargets(t *testing.T) {
	prog := mustProgram(t, tcProgram)
	d := mustDB(t, `e(a, b). e(b, c). e(x, y). e(y, z).`)
	targets := []ast.Atom{atom(t, "tc(a, c)"), atom(t, "tc(x, z)")}
	tr, err := magic.Transform(prog, targets)
	if err != nil {
		t.Fatal(err)
	}
	g := evalMagic(t, prog, d, tr, nil)
	for _, target := range targets {
		if _, ok := g.FactID(target.Predicate, mustTuple(t, d, target)); !ok {
			t.Errorf("grouped graph missing target %s", target)
		}
	}
	// And, restricted to what RR walks can see (reverse closures from the
	// targets), the grouped graph must equal the union of the per-target
	// restricted graphs.
	union := map[string]bool{}
	for _, target := range targets {
		tri, err := magic.Transform(prog, []ast.Atom{target})
		if err != nil {
			t.Fatal(err)
		}
		for s := range restrictedSigs(t, evalMagic(t, prog, d, tri, nil), d, []ast.Atom{target}) {
			union[s] = true
		}
	}
	got := sortedSigs(restrictedSigs(t, g, d, targets))
	want := sortedSigs(union)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("grouped graph:\n got %v\nwant %v", got, want)
	}
}

// restrictedSigs returns the rule-node signatures of g restricted to the
// reverse closure from the given target atoms.
func restrictedSigs(t *testing.T, g *wdgraph.Graph, d *db.Database, targets []ast.Atom) map[string]bool {
	t.Helper()
	reach := map[wdgraph.NodeID]bool{}
	w := wdgraph.NewWalker(g)
	for _, target := range targets {
		if root, ok := g.FactID(target.Predicate, mustTuple(t, d, target)); ok {
			w.ReverseClosure(root, func(v wdgraph.NodeID) { reach[v] = true })
		}
	}
	return ruleSigs(g, d.Symbols(), reach)
}

func TestAdornmentHelpers(t *testing.T) {
	a := magic.Adornment("bfb")
	if got := a.BoundPositions(); fmt.Sprint(got) != "[0 2]" {
		t.Errorf("BoundPositions = %v", got)
	}
	if a.NumBound() != 2 {
		t.Errorf("NumBound = %d", a.NumBound())
	}
	if magic.AllBound(3) != "bbb" {
		t.Errorf("AllBound(3) = %q", magic.AllBound(3))
	}
	orig, ad, isMagic, ok := magic.SplitAdorned(magic.MagicPred("tc", "bb"))
	if !ok || !isMagic || orig != "tc" || ad != "bb" {
		t.Errorf("SplitAdorned magic = %q %q %v %v", orig, ad, isMagic, ok)
	}
	orig, ad, isMagic, ok = magic.SplitAdorned(magic.AdornedPred("tc", "bf"))
	if !ok || isMagic || orig != "tc" || ad != "bf" {
		t.Errorf("SplitAdorned adorned = %q %q %v %v", orig, ad, isMagic, ok)
	}
	if _, _, _, ok := magic.SplitAdorned("plain"); ok {
		t.Error("SplitAdorned(plain) should not parse")
	}
}

// TestMagicWithBuiltins checks that built-in comparison atoms pass through
// the transformation as filters (never adorned, never in the WD graph) and
// that Proposition 4.4's isomorphism still holds.
func TestMagicWithBuiltins(t *testing.T) {
	prog := mustProgram(t, `
		0.9 b1: pair(X, Y) :- item(X, V), item(Y, W), lt(V, W).
		0.7 b2: linked(X, Y) :- pair(X, Y).
		0.5 b3: linked(X, Y) :- linked(X, Z), pair(Z, Y), neq(X, Y).
	`)
	d := mustDB(t, `item(a, 1). item(b, 2). item(c, 3).`)
	fullGraph, _, err := wdgraph.Build(prog, d, wdgraph.BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	syms := d.Symbols()
	for _, target := range mustDerivedAtoms(t, prog, d, "linked") {
		tr, err := magic.Transform(prog, []ast.Atom{target})
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		mg := evalMagic(t, prog, d, tr, nil)

		root, ok := fullGraph.FactID(target.Predicate, mustTuple(t, d, target))
		if !ok {
			t.Fatalf("target %s missing from full graph", target)
		}
		reach := map[wdgraph.NodeID]bool{}
		w := wdgraph.NewWalker(fullGraph)
		w.ReverseClosure(root, func(v wdgraph.NodeID) { reach[v] = true })
		wantSig := sortedSigs(ruleSigs(fullGraph, syms, reach))
		gotSig := sortedSigs(restrictedSigs(t, mg, d, []ast.Atom{target}))
		if fmt.Sprint(gotSig) != fmt.Sprint(wantSig) {
			t.Errorf("target %s:\n got %v\nwant %v", target, gotSig, wantSig)
		}
		// No magic or builtin predicate may appear as a fact node.
		for i := 0; i < mg.NumNodes(); i++ {
			n := mg.Node(wdgraph.NodeID(i))
			if n.Kind != wdgraph.FactNode {
				continue
			}
			if ast.IsBuiltin(n.Pred) || strings.Contains(n.Pred, "@") {
				t.Errorf("graph contains predicate %q", n.Pred)
			}
		}
	}
}

// TestMagicRejectsNegation: the transformation must refuse programs with
// negation (CM is defined over positive programs).
func TestMagicRejectsNegation(t *testing.T) {
	prog := mustProgram(t, `
		p(X) :- a(X), not b(X).
	`)
	if _, err := magic.Transform(prog, []ast.Atom{atom(t, "p(x)")}); err == nil {
		t.Error("negation should be rejected")
	}
}

// mustDerivedAtoms evaluates the program on a scratch db and returns pred's
// derived atoms.
func mustDerivedAtoms(t *testing.T, prog *ast.Program, d *db.Database, pred string) []ast.Atom {
	t.Helper()
	scratch := d.CloneSchema()
	for _, p := range prog.EDBs() {
		if rel, ok := d.Lookup(p); ok {
			scratch.Attach(rel)
		}
	}
	eng, err := engine.New(prog, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(engine.Options{}); err != nil {
		t.Fatal(err)
	}
	return scratch.Facts(pred)
}

func TestRuleKindStringAndPredHelpers(t *testing.T) {
	if magic.Modified.String() != "modified" || magic.MagicRule.String() != "magic" ||
		magic.SeedRule.String() != "seed" || magic.QueryFact.String() != "query" ||
		magic.RuleKind(99).String() != "unknown" {
		t.Error("RuleKind.String wrong")
	}
	prog := mustProgram(t, tcProgram)
	tr, err := magic.Transform(prog, []ast.Atom{atom(t, "tc(a, b)")})
	if err != nil {
		t.Fatal(err)
	}
	// Generated names parse by their number of separators, so user
	// predicates named m and q keep their adorned relations.
	for _, c := range []struct {
		name, orig string
		ad         magic.Adornment
		aux        bool
	}{
		{"m@bb", "m", "bb", false},
		{"m@m@bb", "m", "bb", true},
		{"q@b", "q", "b", false},
		{"q@q@b", "q", "b", true},
		{magic.QueryPred("tc", "bb"), "tc", "bb", true},
	} {
		orig, ad, aux, ok := magic.SplitAdorned(c.name)
		if !ok || orig != c.orig || ad != c.ad || aux != c.aux {
			t.Errorf("SplitAdorned(%q) = %q %q %v %v, want %q %q %v true", c.name, orig, ad, aux, ok, c.orig, c.ad, c.aux)
		}
		orig, ok = tr.OrigPred(c.name)
		if ok == c.aux || (ok && orig != c.orig) {
			t.Errorf("OrigPred(%q) = %q %v", c.name, orig, ok)
		}
	}
	if orig, ok := tr.OrigPred(magic.AdornedPred("tc", "bf")); !ok || orig != "tc" {
		t.Errorf("OrigPred adorned = %q %v", orig, ok)
	}
	if _, ok := tr.OrigPred(magic.MagicPred("tc", "bb")); ok {
		t.Error("magic pred should have no original")
	}
	if orig, ok := tr.OrigPred("e"); !ok || orig != "e" {
		t.Errorf("OrigPred plain = %q %v", orig, ok)
	}
	if !tr.OrigEDB("e") || tr.OrigEDB("tc") {
		t.Error("OrigEDB wrong")
	}
}
