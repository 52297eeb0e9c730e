package cm_test

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"contribmax/internal/cm"
	"contribmax/internal/workload"
)

// TestGreedyMCMatchesRISOnClearCut: the classic MC-greedy baseline must
// find the same answer as the RIS algorithms on the unambiguous instance.
func TestGreedyMCMatchesRISOnClearCut(t *testing.T) {
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
	res, err := cm.GreedyMCCM(in, cm.GreedyMCOptions{
		Simulations: 400,
		Rand:        rand.New(rand.NewPCG(7, 7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	var chainA, chainX int
	for _, s := range seedsOf(res) {
		switch s {
		case "edge(a, b)", "edge(b, c)":
			chainA++
		case "edge(x, y)", "edge(y, z)":
			chainX++
		}
	}
	if chainA != 1 || chainX != 1 {
		t.Errorf("GreedyMC seeds %v do not split across chains", res.Seeds)
	}
	if res.EstContribution < 1.0 {
		t.Errorf("contribution = %g", res.EstContribution)
	}
	if res.Algorithm != "GreedyMC" {
		t.Errorf("algorithm = %q", res.Algorithm)
	}
}

// TestGreedyMCAgreesWithEstimator: the returned contribution must agree
// with an independent Monte-Carlo estimate of the same seed set.
func TestGreedyMCAgreesWithEstimator(t *testing.T) {
	prog := workload.TCProgram(1.0, 0.8)
	rng := rand.New(rand.NewPCG(12, 13))
	d := workload.RandomGraphM(8, 16, rng)
	derived := evalFacts(t, prog, d, "tc")
	if len(derived) < 4 {
		t.Skip("sparse instance")
	}
	in := cm.Input{Program: prog, DB: d, T2: derived[:4], K: 2}
	res, err := cm.GreedyMCCM(in, cm.GreedyMCOptions{
		Simulations: 1500,
		Rand:        rand.New(rand.NewPCG(1, 1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	est, err := cm.NewEstimator(in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := est.Contribution(res.Seeds, 20000, rand.New(rand.NewPCG(2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if diff := res.EstContribution - want; diff > 0.15 || diff < -0.15 {
		t.Errorf("GreedyMC estimate %.3f vs estimator %.3f", res.EstContribution, want)
	}
}

// TestGreedyMCPinned pins GreedyMCCM's seeds, gains and estimate on two
// instances under a fixed rng, at an explicit and at the default
// simulation count, so a change to how it builds its graph or runs its
// forward simulations must keep every draw.
func TestGreedyMCPinned(t *testing.T) {
	tc, err := workload.ByName("TC", 8, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	trade := workload.Trade()
	cases := []struct {
		name string
		w    workload.Workload
		pred string
		sims int
		want string
	}{
		{"TC-8/37", tc, "tc", 37,
			"edge(n7, n0); edge(n0, n2); edge(n4, n5) | [171 23 -1] | 4.891891891891892 | 612 nodes 1584 edges"},
		{"Trade/default", trade, "dealsWith", 0,
			"dealsWith0(france, cuba); exports(france, wine); imports(denmark, sugar) | [1198 0 0] | 5.99 | 679 nodes 1719 edges"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			targets := evalFacts(t, c.w.Program, c.w.DB, c.pred)
			if len(targets) > 6 {
				targets = targets[:6]
			}
			res, err := cm.GreedyMCCM(cm.Input{Program: c.w.Program, DB: c.w.DB, T2: targets, K: 3}, cm.GreedyMCOptions{
				Simulations: c.sims,
				Rand:        rand.New(rand.NewPCG(37, 41)),
			})
			if err != nil {
				t.Fatal(err)
			}
			var seeds []string
			for _, s := range res.Seeds {
				seeds = append(seeds, s.String())
			}
			got := fmt.Sprintf("%s | %v | %v | %d nodes %d edges", strings.Join(seeds, "; "),
				res.SeedGains, res.EstContribution, res.Stats.TotalNodes, res.Stats.TotalEdges)
			if got != c.want {
				t.Errorf("got  %s\nwant %s", got, c.want)
			}
		})
	}
}
