package cm_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"

	"contribmax/internal/ast"
	"contribmax/internal/cm"
	"contribmax/internal/im"
	"contribmax/internal/parser"
	"contribmax/internal/workload"
)

func atom(t *testing.T, s string) ast.Atom {
	t.Helper()
	a, err := parser.ParseAtom(s)
	if err != nil {
		t.Fatalf("parse atom %q: %v", s, err)
	}
	return a
}

func atoms(t *testing.T, ss ...string) []ast.Atom {
	out := make([]ast.Atom, len(ss))
	for i, s := range ss {
		out[i] = atom(t, s)
	}
	return out
}

func seedsOf(r *cm.Result) []string {
	out := make([]string, len(r.Seeds))
	for i, s := range r.Seeds {
		out[i] = s.String()
	}
	sort.Strings(out)
	return out
}

// algo is one CM algorithm under the common signature.
type algo struct {
	name string
	run  func(cm.Input, cm.Options) (*cm.Result, error)
}

// algos enumerates the four CM algorithms of the paper.
var algos = []algo{
	{"NaiveCM", cm.NaiveCM},
	{"MagicCM", cm.MagicCM},
	{"MagicSCM", cm.MagicSampledCM},
	{"MagicGCM", cm.MagicGroupedCM},
}

// risAlgos adds DNFCM to algos: every solver that draws RR sets.
var risAlgos = append(algos[:len(algos):len(algos)], algo{"DNFCM", cm.DNFCM})

// TestAllAlgorithmsAgreeOnClearCutInstance uses an instance with an
// unambiguous answer: two disjoint derivation chains, targets at the end of
// each, k=2 — the unique optimum is one base edge per chain.
func TestAllAlgorithmsAgreeOnClearCutInstance(t *testing.T) {
	prog := workload.TCProgramDirected(1.0, 0.8)
	d := mustFactsDB(t, `
		edge(a, b). edge(b, c).
		edge(x, y). edge(y, z).
	`)
	in := cm.Input{
		Program: prog,
		DB:      d,
		T2:      atoms(t, "tc(a, c)", "tc(x, z)"),
		K:       2,
	}
	for _, al := range algos {
		t.Run(al.name, func(t *testing.T) {
			res, err := al.run(in, cm.Options{
				Theta: im.ThetaSpec{Explicit: 400},
				Rand:  rand.New(rand.NewPCG(1, 2)),
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Seeds) != 2 {
				t.Fatalf("seeds = %v", res.Seeds)
			}
			got := seedsOf(res)
			// One seed per chain; any edge of a chain covers that chain's
			// target equally (all lie on every derivation path).
			var chainA, chainX int
			for _, s := range got {
				switch s {
				case "edge(a, b)", "edge(b, c)":
					chainA++
				case "edge(x, y)", "edge(y, z)":
					chainX++
				}
			}
			if chainA != 1 || chainX != 1 {
				t.Errorf("%s seeds %v do not split across chains", al.name, got)
			}
			if res.EstContribution <= 0 {
				t.Errorf("estimated contribution = %g", res.EstContribution)
			}
		})
	}
}

// TestPredicatesNamedLikeGeneratedNames: user predicates named m and q,
// the first parts of the Magic transform's magic (m@p@β) and query
// (q@p@β) relation names, keep their adorned relations (m@β, q@β), so
// every solver answers as NaiveCM does, at the default θ and at θ = 200.
// Every rule has probability 1, so each RR set holds all three edges and
// every estimate is exact.
func TestPredicatesNamedLikeGeneratedNames(t *testing.T) {
	for _, pred := range []string{"m", "q"} {
		prog, err := parser.ParseProgram(strings.ReplaceAll(`
			1 r1: P(X, Y) :- e(X, Y).
			1 r2: P(X, Z) :- P(X, Y), e(Y, Z).
		`, "P", pred))
		if err != nil {
			t.Fatal(err)
		}
		in := cm.Input{
			Program: prog,
			DB:      mustFactsDB(t, `e(a, b). e(b, c). e(c, d).`),
			T2:      atoms(t, pred+"(a, d)"),
			K:       1,
		}
		for _, theta := range []int{0, 200} { // 0: the default θ
			for _, al := range algos {
				res, err := al.run(in, cm.Options{Theta: im.ThetaSpec{Explicit: theta}, Rand: rand.New(rand.NewPCG(1, 2))})
				if err != nil {
					t.Fatalf("%s, predicate %s, θ=%d: %v", al.name, pred, theta, err)
				}
				if got := fmt.Sprint(res.Seeds, res.EstContribution); got != "[e(a, b)] 1" {
					t.Errorf("%s, predicate %s, θ=%d: seeds and estimate %s, want [e(a, b)] 1", al.name, pred, theta, got)
				}
			}
		}
	}
}

func mustFactsDB(t *testing.T, src string) *dbT {
	t.Helper()
	fs, err := parser.ParseFacts(src)
	if err != nil {
		t.Fatal(err)
	}
	d := newDB()
	for _, f := range fs {
		d.MustInsertAtom(f)
	}
	return d
}

// TestPaperExample37 reproduces Example 3.7: with T2 = {dealsWith(usa,
// iran), dealsWith(pakistan, india), dealsWith(russia, ukraine)} and k = 2,
// the selected set must contain dealsWith0(france, cuba) — the only tuple
// contributing to two targets — plus one contributor to the russia-ukraine
// target.
func TestPaperExample37(t *testing.T) {
	w := workload.Trade()
	in := cm.Input{
		Program: w.Program,
		DB:      w.DB,
		T2: atoms(t,
			"dealsWith(usa, iran)",
			"dealsWith(pakistan, india)",
			"dealsWith(russia, ukraine)",
		),
		K: 2,
	}
	for _, al := range algos {
		t.Run(al.name, func(t *testing.T) {
			res, err := al.run(in, cm.Options{
				Theta: im.ThetaSpec{Explicit: 800},
				Rand:  rand.New(rand.NewPCG(11, 7)),
			})
			if err != nil {
				t.Fatal(err)
			}
			got := seedsOf(res)
			if len(got) != 2 {
				t.Fatalf("seeds = %v", got)
			}
			hasFC := false
			hasRU := false
			for _, s := range got {
				if s == `dealsWith0(france, cuba)` {
					hasFC = true
				}
				if s == "exports(russia, gas)" || s == "imports(ukraine, gas)" {
					hasRU = true
				}
			}
			if !hasFC {
				t.Errorf("%s: seeds %v missing dealsWith0(france, cuba)", al.name, got)
			}
			if !hasRU {
				t.Errorf("%s: seeds %v missing a russia-ukraine contributor", al.name, got)
			}
		})
	}
}

// TestNaiveAndMagicEstimatesAgree checks Proposition 4.4 end to end: the
// contribution estimates produced from NaiveCM's RR sets and from the
// Magic variants' RR sets must agree statistically.
func TestNaiveAndMagicEstimatesAgree(t *testing.T) {
	prog := workload.TCProgram(1.0, 0.8)
	rng := rand.New(rand.NewPCG(5, 6))
	d := workload.RandomGraphM(10, 24, rng)
	derived := evalFacts(t, prog, d, "tc")
	if len(derived) < 5 {
		t.Skip("random graph too sparse")
	}
	targets := derived[:5]
	in := cm.Input{Program: prog, DB: d, T2: targets, K: 3}
	opts := func(seed uint64) cm.Options {
		return cm.Options{Theta: im.ThetaSpec{Explicit: 1200}, Rand: rand.New(rand.NewPCG(seed, 1))}
	}
	naive, err := cm.NaiveCM(in, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, al := range algos[1:] {
		res, err := al.run(in, opts(2))
		if err != nil {
			t.Fatalf("%s: %v", al.name, err)
		}
		// Both estimate the same quantity; with θ=1200 the standard
		// error is small. Allow 15% relative tolerance (several σ).
		if rel := math.Abs(res.EstContribution-naive.EstContribution) / math.Max(naive.EstContribution, 1e-9); rel > 0.15 {
			t.Errorf("%s estimate %.3f vs NaiveCM %.3f (rel diff %.2f)",
				al.name, res.EstContribution, naive.EstContribution, rel)
		}
	}
}

// TestSeedsSubsetOfT1 checks the targeted-IM restriction (i): only T1
// members may be selected.
func TestSeedsSubsetOfT1(t *testing.T) {
	prog := workload.TCProgramDirected(1.0, 0.8)
	d := mustFactsDB(t, `edge(a, b). edge(b, c). edge(c, d).`)
	T1 := atoms(t, "edge(b, c)", "edge(c, d)")
	in := cm.Input{Program: prog, DB: d, T1: T1, T2: atoms(t, "tc(a, d)"), K: 1}
	for _, al := range algos {
		res, err := al.run(in, cm.Options{Theta: im.ThetaSpec{Explicit: 200}, Rand: rand.New(rand.NewPCG(3, 3))})
		if err != nil {
			t.Fatalf("%s: %v", al.name, err)
		}
		for _, s := range res.Seeds {
			str := s.String()
			if str != "edge(b, c)" && str != "edge(c, d)" {
				t.Errorf("%s selected %s outside T1", al.name, str)
			}
		}
	}
}

func TestInputValidation(t *testing.T) {
	prog := workload.TCProgramDirected(1.0, 0.8)
	d := mustFactsDB(t, `edge(a, b).`)
	cases := []struct {
		name string
		in   cm.Input
	}{
		{"nil program", cm.Input{DB: d, T2: atoms(t, "tc(a, b)"), K: 1}},
		{"nil db", cm.Input{Program: prog, T2: atoms(t, "tc(a, b)"), K: 1}},
		{"zero k", cm.Input{Program: prog, DB: d, T2: atoms(t, "tc(a, b)")}},
		{"empty T2", cm.Input{Program: prog, DB: d, K: 1}},
		{"edb target", cm.Input{Program: prog, DB: d, T2: atoms(t, "edge(a, b)"), K: 1}},
		{"T1 not in db", cm.Input{Program: prog, DB: d, T1: atoms(t, "edge(z, z)"), T2: atoms(t, "tc(a, b)"), K: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := cm.NaiveCM(c.in, cm.Options{}); err == nil {
				t.Errorf("want error")
			}
		})
	}
}

// TestStatsSanity verifies the cost accounting the figures rely on.
func TestStatsSanity(t *testing.T) {
	prog := workload.TCProgram(1.0, 0.8)
	d := workload.CompleteGraph(6)
	in := cm.Input{Program: prog, DB: d, T2: evalFacts(t, prog, d, "tc")[:4], K: 2}
	theta := 40

	naive, err := cm.NaiveCM(in, cm.Options{Theta: im.ThetaSpec{Explicit: theta}, Rand: rand.New(rand.NewPCG(1, 1))})
	if err != nil {
		t.Fatal(err)
	}
	if naive.Stats.GraphBuilds != 1 {
		t.Errorf("NaiveCM builds = %d, want 1", naive.Stats.GraphBuilds)
	}
	if naive.Stats.NumRR != theta {
		t.Errorf("NaiveCM RR = %d, want %d", naive.Stats.NumRR, theta)
	}

	magicRes, err := cm.MagicCM(in, cm.Options{Theta: im.ThetaSpec{Explicit: theta}, Rand: rand.New(rand.NewPCG(1, 1))})
	if err != nil {
		t.Fatal(err)
	}
	if magicRes.Stats.GraphBuilds != theta {
		t.Errorf("MagicCM builds = %d, want %d", magicRes.Stats.GraphBuilds, theta)
	}

	sampled, err := cm.MagicSampledCM(in, cm.Options{Theta: im.ThetaSpec{Explicit: theta}, Rand: rand.New(rand.NewPCG(1, 1))})
	if err != nil {
		t.Fatal(err)
	}
	// In-construction sampling must not enlarge graphs: per-build average
	// strictly below the unsampled magic average (rule probabilities < 1
	// prune aggressively on this dense instance).
	if sampled.Stats.AvgGraphSize() >= magicRes.Stats.AvgGraphSize() {
		t.Errorf("Magic^S avg graph %.1f >= MagicCM avg graph %.1f",
			sampled.Stats.AvgGraphSize(), magicRes.Stats.AvgGraphSize())
	}

	grouped, err := cm.MagicGroupedCM(in, cm.Options{Theta: im.ThetaSpec{Explicit: theta}, Rand: rand.New(rand.NewPCG(1, 1))})
	if err != nil {
		t.Fatal(err)
	}
	if grouped.Stats.GraphBuilds != 1 {
		t.Errorf("MagicGCM builds = %d, want 1", grouped.Stats.GraphBuilds)
	}
	// The full WD graph dominates any magic subgraph.
	if naive.Stats.PeakResidentSize < grouped.Stats.PeakResidentSize {
		t.Errorf("naive peak %d < grouped peak %d", naive.Stats.PeakResidentSize, grouped.Stats.PeakResidentSize)
	}
}
