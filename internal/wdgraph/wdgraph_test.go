package wdgraph_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/parser"
	"contribmax/internal/wdgraph"
)

func mustProgram(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustDB(t *testing.T, facts string) *db.Database {
	t.Helper()
	fs, err := parser.ParseFacts(facts)
	if err != nil {
		t.Fatal(err)
	}
	d := db.NewDatabase()
	for _, f := range fs {
		d.MustInsertAtom(f)
	}
	return d
}

// buildTC builds the WD graph of the Example 4.2 program over a 2-edge path.
func buildTC(t *testing.T) (*wdgraph.Graph, *db.Database) {
	t.Helper()
	prog := mustProgram(t, `
		1.0 r1: tc(X, Y) :- edge(X, Y).
		0.8 r2: tc(X, Y) :- tc(X, Z), tc(Z, Y).
	`)
	d := mustDB(t, `edge(a, b). edge(b, c).`)
	g, _, err := wdgraph.Build(prog, d, wdgraph.BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return g, d
}

func TestWDGraphStructureDefinition31(t *testing.T) {
	g, d := buildTC(t)
	// Facts: edge(a,b), edge(b,c), tc(a,b), tc(b,c), tc(a,c) = 5 fact
	// nodes; instantiations: r1 x2, r2 x1 = 3 rule nodes.
	if g.NumNodes() != 8 {
		t.Fatalf("nodes = %d, want 8\n%s", g.NumNodes(), g.DebugString(d.Symbols()))
	}
	// Edges: each r1 node has 1 in + 1 out; r2 node has 2 in + 1 out = 7.
	if g.NumEdges() != 7 {
		t.Fatalf("edges = %d, want 7", g.NumEdges())
	}
	if g.Size() != 15 {
		t.Errorf("Size = %d", g.Size())
	}

	// Every rule node: in-edges weight 1, single out-edge with the rule's
	// probability.
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(wdgraph.NodeID(i))
		if n.Kind != wdgraph.RuleNode {
			continue
		}
		for _, u := range g.InEdges(wdgraph.NodeID(i)) {
			if w := g.Weight(u); w != 1 {
				t.Errorf("rule in-edge weight = %g, want 1", w)
			}
		}
		outs := g.OutEdges(wdgraph.NodeID(i))
		if len(outs) != 1 {
			t.Fatalf("rule node %d has %d out-edges", i, len(outs))
		}
		want := 1.0
		if n.Pred == "r2" {
			want = 0.8
		}
		if w := g.Weight(wdgraph.NodeID(i)); w != want {
			t.Errorf("rule %s out-edge weight = %g, want %g", n.Pred, w, want)
		}
	}

	// EDB flags.
	ab, _ := d.InternAtom(ast.NewAtom("edge", ast.C("a"), ast.C("b")))
	if id, ok := g.FactID("edge", ab); !ok || !g.Node(id).EDB {
		t.Error("edge(a,b) should be an EDB fact node")
	}
	tcab, _ := d.InternAtom(ast.NewAtom("tc", ast.C("a"), ast.C("b")))
	if id, ok := g.FactID("tc", tcab); !ok || g.Node(id).EDB {
		t.Error("tc(a,b) should be a non-EDB fact node")
	}
}

// unpreloadedGraph builds the identity-projected graph of prog over d
// without the edb preload, through the builder's listener as the Magic
// subgraph builds do: an edb fact gets a node only when an instantiation
// uses it.
func unpreloadedGraph(t *testing.T, prog *ast.Program, d *db.Database) *wdgraph.Graph {
	t.Helper()
	eng, err := engine.New(prog, d)
	if err != nil {
		t.Fatal(err)
	}
	b := wdgraph.NewBuilder(wdgraph.IdentityProjection(prog))
	if _, err := eng.Run(engine.Options{Listener: b.Listener()}); err != nil {
		t.Fatal(err)
	}
	return b.Graph()
}

func TestPreloadIncludesUnusedEDB(t *testing.T) {
	prog := mustProgram(t, `p(X) :- e(X, X).`)
	d := mustDB(t, `e(a, b). e(c, c).`)
	g, _, err := wdgraph.Build(prog, d, wdgraph.BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// e(a,b) participates in no derivation but Definition 3.1 still gives
	// it a node.
	ab, _ := d.InternAtom(ast.NewAtom("e", ast.C("a"), ast.C("b")))
	if _, ok := g.FactID("e", ab); !ok {
		t.Error("unused edb fact missing despite preload")
	}
	// Without preload it is absent.
	g2 := unpreloadedGraph(t, prog, mustDB(t, `e(a, b). e(c, c).`))
	if _, ok := g2.FactID("e", ab); ok {
		t.Error("unused edb fact present without preload")
	}
}

func TestSharedDerivationsMerge(t *testing.T) {
	// Two rules deriving the same head from the same body produce distinct
	// rule nodes; the same rule deriving the same head twice produces one.
	prog := mustProgram(t, `
		0.5 q1: p(X) :- e(X, Y).
		0.5 q2: p(X) :- f(X, Y).
	`)
	d := mustDB(t, `e(a, b). f(a, z).`)
	g, _, err := wdgraph.Build(prog, d, wdgraph.BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rules := 0
	for i := 0; i < g.NumNodes(); i++ {
		if g.Node(wdgraph.NodeID(i)).Kind == wdgraph.RuleNode {
			rules++
		}
	}
	if rules != 2 {
		t.Errorf("rule nodes = %d, want 2", rules)
	}
	pa, _ := d.InternAtom(ast.NewAtom("p", ast.C("a")))
	id, ok := g.FactID("p", pa)
	if !ok {
		t.Fatal("p(a) missing")
	}
	if g.InDegree(id) != 2 {
		t.Errorf("p(a) in-edges = %d, want 2 (one per rule)", g.InDegree(id))
	}
}

func TestReverseReachableDeterministic(t *testing.T) {
	g, d := buildTC(t)
	tcac, _ := d.InternAtom(ast.NewAtom("tc", ast.C("a"), ast.C("c")))
	root, ok := g.FactID("tc", tcac)
	if !ok {
		t.Fatal("tc(a,c) missing")
	}
	w := wdgraph.NewWalker(g)
	visited := map[wdgraph.NodeID]bool{}
	w.ReverseClosure(root, func(v wdgraph.NodeID) { visited[v] = true })
	// Everything is an ancestor of tc(a,c): 8 nodes.
	if len(visited) != 8 {
		t.Errorf("reverse closure = %d nodes, want 8", len(visited))
	}
}

func TestReverseReachableProbability(t *testing.T) {
	// From tc(a,c), the walk crosses the r2 edge w.p. 0.8 and then reaches
	// everything (r1 edges have weight 1). So P[edge(a,b) in RR] = 0.8.
	g, d := buildTC(t)
	tcac, _ := d.InternAtom(ast.NewAtom("tc", ast.C("a"), ast.C("c")))
	root, _ := g.FactID("tc", tcac)
	ab, _ := d.InternAtom(ast.NewAtom("edge", ast.C("a"), ast.C("b")))
	abID, _ := g.FactID("edge", ab)

	rng := rand.New(rand.NewPCG(3, 14))
	w := wdgraph.NewWalker(g)
	const trials = 100000
	hits := 0
	for i := 0; i < trials; i++ {
		found := false
		w.ReverseReachable(root, rng, false, func(v wdgraph.NodeID) {
			if v == abID {
				found = true
			}
		})
		if found {
			hits++
		}
	}
	p := float64(hits) / trials
	if math.Abs(p-0.8) > 0.01 {
		t.Errorf("P[edge(a,b) in RR] = %.4f, want 0.80", p)
	}
}

func TestForwardReachProbability(t *testing.T) {
	// Forward from edge(a,b): tc(a,b) w.p. 1 (r1), tc(a,c) w.p. 0.8 (r2).
	g, d := buildTC(t)
	ab, _ := d.InternAtom(ast.NewAtom("edge", ast.C("a"), ast.C("b")))
	abID, _ := g.FactID("edge", ab)
	tcac, _ := d.InternAtom(ast.NewAtom("tc", ast.C("a"), ast.C("c")))
	target, _ := g.FactID("tc", tcac)

	rng := rand.New(rand.NewPCG(0xF00, 0xBA7))
	w := wdgraph.NewWalker(g)
	const trials = 100000
	hits := 0
	for i := 0; i < trials; i++ {
		found := false
		w.ForwardReach([]wdgraph.NodeID{abID}, rng, func(v wdgraph.NodeID) {
			if v == target {
				found = true
			}
		})
		if found {
			hits++
		}
	}
	p := float64(hits) / trials
	if math.Abs(p-0.8) > 0.01 {
		t.Errorf("P[reach tc(a,c)] = %.4f, want 0.80", p)
	}
}

func TestWalkerReuseIsolation(t *testing.T) {
	// Two consecutive walks must not leak visitation state. Weights are all
	// 1 so the walks are deterministic.
	prog := mustProgram(t, `
		1.0 r1: tc(X, Y) :- edge(X, Y).
		1.0 r2: tc(X, Y) :- tc(X, Z), tc(Z, Y).
	`)
	d := mustDB(t, `edge(a, b). edge(b, c).`)
	g, _, err := wdgraph.Build(prog, d, wdgraph.BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := d.InternAtom(ast.NewAtom("edge", ast.C("a"), ast.C("b")))
	abID, _ := g.FactID("edge", ab)
	bc, _ := d.InternAtom(ast.NewAtom("edge", ast.C("b"), ast.C("c")))
	bcID, _ := g.FactID("edge", bc)
	w := wdgraph.NewWalker(g)
	count1, count2 := 0, 0
	w.ForwardReach([]wdgraph.NodeID{abID}, nil, func(wdgraph.NodeID) { count1++ })
	w.ForwardReach([]wdgraph.NodeID{abID, bcID}, nil, func(wdgraph.NodeID) { count2++ })
	if count2 <= count1 {
		t.Errorf("second (larger) walk visited %d <= first %d", count2, count1)
	}
	count3 := 0
	w.ForwardReach([]wdgraph.NodeID{abID}, nil, func(wdgraph.NodeID) { count3++ })
	if count3 != count1 {
		t.Errorf("repeat walk visited %d, want %d", count3, count1)
	}
}

func TestFactNodesIteration(t *testing.T) {
	g, _ := buildTC(t)
	facts := 0
	g.FactNodes(func(id wdgraph.NodeID, n wdgraph.Node) {
		if n.Kind != wdgraph.FactNode {
			t.Error("FactNodes yielded a rule node")
		}
		facts++
	})
	if facts != 5 {
		t.Errorf("fact nodes = %d, want 5", facts)
	}
}

func TestWriteDOT(t *testing.T) {
	g, d := buildTC(t)
	var buf strings.Builder
	if err := wdgraph.WriteDOT(&buf, g, d.Symbols()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"digraph wd {",
		`label="edge(a,b)"`,
		`label="tc(a,c)"`,
		`label="r2"`,
		`label="0.8"`, // the probabilistic edge
		"}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "->"); got != g.NumEdges() {
		t.Errorf("DOT has %d edges, graph has %d", got, g.NumEdges())
	}
}

func TestDebugString(t *testing.T) {
	g, d := buildTC(t)
	out := g.DebugString(d.Symbols())
	if !strings.Contains(out, "edge(a,b) edb") || !strings.Contains(out, "[rule r2]") {
		t.Errorf("DebugString:\n%s", out)
	}
}

// TestWideInstantiation pins that an instantiation keeps every body edge
// however many body atoms its rule has: a 40-atom rule fires once and
// yields one rule node with 40 in-edges and one out-edge to its head.
func TestWideInstantiation(t *testing.T) {
	const width = 40
	var body, facts []string
	for i := 0; i < width; i++ {
		body = append(body, fmt.Sprintf("e%d(X)", i))
		facts = append(facts, fmt.Sprintf("e%d(a).", i))
	}
	prog := mustProgram(t, "0.5 wide: h(X) :- "+strings.Join(body, ", ")+".")
	d := mustDB(t, strings.Join(facts, " "))
	g := unpreloadedGraph(t, prog, d)
	var rules []wdgraph.NodeID
	for i := 0; i < g.NumNodes(); i++ {
		if g.Node(wdgraph.NodeID(i)).Kind == wdgraph.RuleNode {
			rules = append(rules, wdgraph.NodeID(i))
		}
	}
	if len(rules) != 1 {
		t.Fatalf("rule nodes = %d, want 1\n%s", len(rules), g.DebugString(d.Symbols()))
	}
	r := rules[0]
	if got := g.InDegree(r); got != width {
		t.Errorf("rule in-degree = %d, want %d", got, width)
	}
	if got := g.OutDegree(r); got != 1 {
		t.Errorf("rule out-degree = %d, want 1", got)
	}
	ha, _ := d.InternAtom(ast.NewAtom("h", ast.C("a")))
	head, ok := g.FactID("h", ha)
	if !ok {
		t.Fatal("h(a) missing")
	}
	if in := g.InEdges(head); len(in) != 1 || in[0] != r || g.Weight(r) != 0.5 {
		t.Errorf("h(a) in-edges = %+v, want one edge from rule node %d weighted 0.5", in, r)
	}
	if g.NumNodes() != width+2 || g.NumEdges() != width+1 {
		t.Errorf("graph has %d nodes and %d edges, want %d and %d", g.NumNodes(), g.NumEdges(), width+2, width+1)
	}
}
