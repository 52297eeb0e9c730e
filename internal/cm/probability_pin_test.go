package cm_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"contribmax/internal/ast"
	"contribmax/internal/cm"
	"contribmax/internal/workload"
)

// TestDerivationProbabilityPinned pins DerivationProbability's exact
// estimates, which are hit counts over the sample count: ten AMIE-8
// targets of both idb predicates at 5,000 samples, and one TC target at
// sample counts that leave no propagated sample (1, 2), fewer than 64
// (64), exactly 64 (65) and exactly 128 (129). The other
// DerivationProbability tests check tolerances only, so a change that
// drops or repeats a few samples, or draws one with another sample's gate
// seed, passes them; it cannot pass this one. The values were captured
// when every propagated sample was a propagation of its own.
func TestDerivationProbabilityPinned(t *testing.T) {
	estimate := func(prog *ast.Program, d *dbT, target ast.Atom, samples int, seed uint64) string {
		t.Helper()
		p, err := cm.DerivationProbability(prog, d, target, samples, rand.New(rand.NewPCG(seed, 0xD1)))
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s n=%d p=%v", target, samples, p)
	}
	var got []string

	w := workload.AMIE(workload.AMIEDBParams{Countries: 8}, rand.New(rand.NewPCG(8, 1)))
	var targets []ast.Atom
	for _, pred := range []string{"dealsWith", "connected"} {
		facts := evalFacts(t, w.Program, w.DB, pred)
		if len(facts) < 5 {
			t.Fatalf("%d %s facts; pick another generator seed", len(facts), pred)
		}
		for k := 0; k < 5; k++ {
			targets = append(targets, facts[k*(len(facts)-1)/4])
		}
	}
	for i, target := range targets {
		got = append(got, estimate(w.Program, w.DB, target, 5000, uint64(i)))
	}

	prog := workload.TCProgram(0.7, 0.45)
	d := workload.RandomGraphM(16, 40, rand.New(rand.NewPCG(31, 41)))
	tc := evalFacts(t, prog, d, "tc")
	for _, samples := range []int{1, 2, 64, 65, 129} {
		got = append(got, estimate(prog, d, tc[len(tc)/2], samples, 99))
	}

	want := []string{
		"dealsWith(country0, country0) n=5000 p=0.9912",
		"dealsWith(country1, country7) n=5000 p=0.881",
		"dealsWith(country3, country7) n=5000 p=0.6198",
		"dealsWith(country5, country7) n=5000 p=0.889",
		"dealsWith(country7, country7) n=5000 p=0.892",
		"connected(country0, country0) n=5000 p=0.9876",
		"connected(country1, country7) n=5000 p=0.8844",
		"connected(country3, country7) n=5000 p=0.6232",
		"connected(country5, country7) n=5000 p=0.884",
		"connected(country7, country7) n=5000 p=0.8974",
		"tc(n2, n0) n=1 p=1",
		"tc(n2, n0) n=2 p=1",
		"tc(n2, n0) n=64 p=0.953125",
		"tc(n2, n0) n=65 p=0.9538461538461539",
		"tc(n2, n0) n=129 p=0.9689922480620154",
	}
	if len(got) != len(want) {
		t.Fatalf("%d estimates, want %d:\n%q", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("estimate %d: %s, want %s", i, got[i], want[i])
		}
	}
}
