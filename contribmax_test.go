package contribmax_test

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"contribmax"
)

const tcSrc = `
	1.0 r1: tc(X, Y) :- edge(X, Y).
	0.8 r2: tc(X, Y) :- tc(X, Z), tc(Z, Y).
`

func TestFacadeEndToEnd(t *testing.T) {
	prog, err := contribmax.ParseProgram(tcSrc)
	if err != nil {
		t.Fatal(err)
	}
	db, err := contribmax.LoadDatabase(`edge(a, b). edge(b, c). edge(x, y).`)
	if err != nil {
		t.Fatal(err)
	}
	target, err := contribmax.ParseAtom("tc(a, c)")
	if err != nil {
		t.Fatal(err)
	}
	in := contribmax.Input{Program: prog, DB: db.Database, T2: []contribmax.Atom{target}, K: 1}
	res, err := contribmax.MagicSampledCM(in, contribmax.Options{
		Theta: contribmax.ThetaSpec{Explicit: 300},
		Rand:  rand.New(rand.NewPCG(1, 1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 1 {
		t.Fatalf("seeds = %v", res.Seeds)
	}
	s := res.Seeds[0].String()
	if s != "edge(a, b)" && s != "edge(b, c)" {
		t.Errorf("seed %s not on the a-c chain", s)
	}
	// The user's database must not have been polluted with derived facts.
	if db.Facts("tc") != nil {
		t.Error("CM run mutated the input database with derived tc facts")
	}
}

func TestFacadeEvalAndGraph(t *testing.T) {
	prog, _ := contribmax.ParseProgram(tcSrc)
	db, _ := contribmax.LoadDatabase(`edge(a, b). edge(b, c).`)

	g, err := contribmax.BuildWDGraph(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 8 || g.NumEdges() != 7 {
		t.Errorf("graph = %d nodes %d edges, want 8/7", g.NumNodes(), g.NumEdges())
	}
	if db.Facts("tc") != nil {
		t.Error("BuildWDGraph mutated the input database")
	}

	// Eval, by contrast, derives into the database.
	stats, err := contribmax.Eval(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NewFacts != 3 {
		t.Errorf("NewFacts = %d, want 3", stats.NewFacts)
	}
	if got := len(db.Facts("tc")); got != 3 {
		t.Errorf("tc facts = %d, want 3", got)
	}
}

func TestFacadeTermConstructors(t *testing.T) {
	a := contribmax.NewAtom("p", contribmax.V("X"), contribmax.C("k"))
	if a.String() != "p(X, k)" {
		t.Errorf("atom = %s", a)
	}
}

func TestFacadeInsertAllErrors(t *testing.T) {
	db := contribmax.NewDatabase()
	bad := []contribmax.Atom{contribmax.NewAtom("p", contribmax.V("X"))}
	if _, err := db.InsertAll(bad); err == nil {
		t.Error("non-ground InsertAll should error")
	}
	if _, err := contribmax.LoadDatabase(`p(X).`); err == nil {
		t.Error("LoadDatabase with variables should error")
	}
}

func TestFacadeEstimatorAndOPT(t *testing.T) {
	prog, _ := contribmax.ParseProgram(tcSrc)
	db, _ := contribmax.LoadDatabase(`edge(a, b). edge(b, c).`)
	target, _ := contribmax.ParseAtom("tc(a, c)")
	in := contribmax.Input{Program: prog, DB: db.Database, T2: []contribmax.Atom{target}, K: 1}

	est, err := contribmax.NewEstimator(in)
	if err != nil {
		t.Fatal(err)
	}
	seed, _ := contribmax.ParseAtom("edge(a, b)")
	rng := rand.New(rand.NewPCG(2, 2))
	c, err := est.Contribution([]contribmax.Atom{seed}, 50000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if c < 0.75 || c > 0.85 { // exact value 0.8
		t.Errorf("contribution = %.3f, want ~0.8", c)
	}

	opt, err := contribmax.BruteForceOPT(in, 5000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Seeds) != 1 || !strings.HasPrefix(opt.Seeds[0].String(), "edge(") {
		t.Errorf("OPT seeds = %v", opt.Seeds)
	}
}

func TestFacadeExplain(t *testing.T) {
	prog, _ := contribmax.ParseProgram(`
		0.6 r1: tc(X, Y) :- edge(X, Y).
		0.5 r2: tc(X, Y) :- tc(X, Z), tc(Z, Y).
	`)
	db, _ := contribmax.LoadDatabase(`edge(a, b). edge(b, c).`)
	target, _ := contribmax.ParseAtom("tc(a, c)")
	tree, ok, err := contribmax.Explain(prog, db, target)
	if err != nil || !ok {
		t.Fatalf("Explain: ok=%v err=%v", ok, err)
	}
	if tree.Rule != "r2" || tree.Prob != 0.18 {
		t.Errorf("tree = (%s, %g)", tree.Rule, tree.Prob)
	}
	if !strings.Contains(tree.Render(db.Symbols()), "edge(a, b)") {
		t.Error("rendering missing leaf")
	}

	missing, _ := contribmax.ParseAtom("tc(c, a)")
	if _, ok, err := contribmax.Explain(prog, db, missing); err != nil || ok {
		t.Errorf("underivable: ok=%v err=%v", ok, err)
	}

	trees, err := contribmax.ExplainTopK(prog, db, target, 5)
	if err != nil || len(trees) != 1 {
		t.Errorf("ExplainTopK = %d trees, err=%v", len(trees), err)
	}

	nonGround, _ := contribmax.ParseAtom("tc(X, c)")
	if _, _, err := contribmax.Explain(prog, db, nonGround); err == nil {
		t.Error("non-ground target should error")
	}
}

// TestFacadeExplainPredicateNamedM: a predicate named m keeps its adorned
// relation m@bb under the Magic transform, whose magic relations are
// named m@m@bb, so Explain finds its facts.
func TestFacadeExplainPredicateNamedM(t *testing.T) {
	prog, _ := contribmax.ParseProgram(`
		0.9 r1: m(X, Y) :- e(X, Y).
		0.8 r2: m(X, Z) :- m(X, Y), e(Y, Z).
	`)
	db, _ := contribmax.LoadDatabase(`e(a, b). e(b, c). e(c, d).`)
	target, _ := contribmax.ParseAtom("m(a, d)")
	tree, ok, err := contribmax.Explain(prog, db, target)
	if err != nil || !ok {
		t.Fatalf("Explain: ok=%v err=%v", ok, err)
	}
	if tree.Rule != "r2" || math.Abs(tree.Prob-0.9*0.8*0.8) > 1e-12 {
		t.Errorf("tree = (%s, %g), want (r2, 0.576)", tree.Rule, tree.Prob)
	}
}

func TestFacadeDerivationProbability(t *testing.T) {
	prog, _ := contribmax.ParseProgram(`0.25 r1: p(X) :- e(X).`)
	db, _ := contribmax.LoadDatabase(`e(a).`)
	target, _ := contribmax.ParseAtom("p(a)")
	got, err := contribmax.DerivationProbability(prog, db, target, 40000, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.23 || got > 0.27 {
		t.Errorf("P = %.4f, want ~0.25", got)
	}
}

// TestFacadeAlgorithmsAndFiles exercises the facade wrappers end to end.
func TestFacadeAlgorithmsAndFiles(t *testing.T) {
	prog, err := contribmax.ParseProgramFile("testdata/trade.dl")
	if err != nil {
		t.Fatal(err)
	}
	db, err := contribmax.LoadDatabaseFile("testdata/trade.facts")
	if err != nil {
		t.Fatal(err)
	}
	target, _ := contribmax.ParseAtom("dealsWith(russia, ukraine)")
	in := contribmax.Input{Program: prog, DB: db.Database, T2: []contribmax.Atom{target}, K: 1}
	opts := contribmax.Options{
		Theta: contribmax.ThetaSpec{Explicit: 300},
		Rand:  rand.New(rand.NewPCG(1, 1)),
	}
	for _, algo := range []struct {
		name string
		run  func(contribmax.Input, contribmax.Options) (*contribmax.Result, error)
	}{
		{"NaiveCM", contribmax.NaiveCM},
		{"MagicCM", contribmax.MagicCM},
		{"MagicSampledCM", contribmax.MagicSampledCM},
		{"MagicGroupedCM", contribmax.MagicGroupedCM},
	} {
		res, err := algo.run(in, opts)
		if err != nil {
			t.Fatalf("%s: %v", algo.name, err)
		}
		if s := res.Seeds[0].String(); s != "exports(russia, gas)" && s != "imports(ukraine, gas)" {
			t.Errorf("%s seed = %s", algo.name, s)
		}
	}
	res, err := contribmax.GreedyMCCM(in, contribmax.GreedyMCOptions{
		Simulations: 200,
		Rand:        rand.New(rand.NewPCG(2, 2)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Seeds[0].String(); s != "exports(russia, gas)" && s != "imports(ukraine, gas)" {
		t.Errorf("GreedyMC seed = %s", s)
	}

	// Snapshot round trip through the facade loader.
	snap := t.TempDir() + "/trade.cmdb"
	if err := db.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	db2, err := contribmax.LoadDatabaseFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if db2.TotalTuples() != db.TotalTuples() {
		t.Errorf("snapshot tuples = %d, want %d", db2.TotalTuples(), db.TotalTuples())
	}
}

func TestFacadeOptimize(t *testing.T) {
	prog, _ := contribmax.ParseProgram(`
		p(X) :- e(X), lt(2, 1).
		q(X) :- e(X).
	`)
	opt, rep := contribmax.Optimize(prog)
	if !rep.Changed() || rep.DroppedUnsatisfiable != 1 || len(opt.Rules) != 1 {
		t.Errorf("optimize: %+v rules=%d", rep, len(opt.Rules))
	}
}
