package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"contribmax/internal/cm"
	"contribmax/internal/im"
	"contribmax/internal/obs/journal"
	"contribmax/internal/workload"
)

// TestEstimatorSummaries solves three power-law instances, at increasing
// skew, with the exact lifted tier, the RIS sampler (MagicCM) and DNF
// possible-world sampling, on identical inputs and generators. The
// power-law program is hierarchical by construction, so an exact-tier
// fallback means the eligibility analysis regressed. Each sampler must lie
// within 6σ of the exact value of its own seed set. The exact objective and
// the lineage size are closed-form computations over pinned inputs, so
// they are pinned: any drift means the workload generator or the lifted
// evaluator changed semantics.
func TestEstimatorSummaries(t *testing.T) {
	if testing.Short() {
		t.Skip("solves three power-law instances three ways")
	}
	// theta is small enough to keep the test fast and large enough that
	// the 6σ gate has negligible flake probability.
	const theta = 400
	for _, pin := range []struct {
		alpha   float64
		exact   float64
		clauses int
	}{
		{0.5, 8.3564, 143},
		{1, 13.435577920000004, 205},
		{2, 13.187243417600003, 148},
	} {
		t.Run(fmt.Sprintf("PowerLaw-a%g", pin.alpha), func(t *testing.T) {
			p := workload.DefaultPowerLawParams(40)
			p.Alpha = pin.alpha
			w := workload.PowerLaw(p, rand.New(rand.NewPCG(3, 5)))
			_, outputs, err := evalOutputs(w)
			if err != nil {
				t.Fatal(err)
			}
			targets := sampleTargets(outputs, targetCount(Quick), rand.New(rand.NewPCG(11, 13)))
			if len(targets) == 0 {
				t.Fatal("no targets derived")
			}
			in := cm.Input{Program: w.Program, DB: w.DB, T2: targets, K: 5}
			solve := func(algo func(cm.Input, cm.Options) (*cm.Result, error)) *cm.Result {
				t.Helper()
				r, err := algo(in, cm.Options{
					Theta: im.ThetaSpec{Explicit: theta},
					Rand:  rand.New(rand.NewPCG(17, 19)),
				})
				if err != nil {
					t.Fatal(err)
				}
				return r
			}

			exact := solve(cm.ExactCM)
			if exact.Stats.ExactFallback != "" {
				t.Fatalf("exact tier fell back on a hierarchical program: %s", exact.Stats.ExactFallback)
			}
			if math.Abs(exact.EstContribution-pin.exact) > 1e-9 {
				t.Errorf("exact value %.12g, pinned %.12g", exact.EstContribution, pin.exact)
			}
			if exact.Stats.LineageClauses != pin.clauses {
				t.Errorf("lineage clauses %d, pinned %d", exact.Stats.LineageClauses, pin.clauses)
			}

			for _, sampled := range []*cm.Result{solve(cm.MagicCM), solve(cm.DNFCM)} {
				ev, err := cm.ExactContribution(in, sampled.Seeds, cm.Options{})
				if err != nil {
					t.Fatalf("%s seeds: %v", sampled.Algorithm, err)
				}
				tol := 6*sampled.EstContribution*journal.ErrProxy(sampled.Stats.CoveredRR, theta) +
					3*float64(len(in.T2))/math.Sqrt(theta)
				if dev := math.Abs(sampled.EstContribution - ev); dev > tol {
					t.Errorf("%s estimate %.4f strays %.4f from the exact value %.4f of its seeds (tol %.4f)",
						sampled.Algorithm, sampled.EstContribution, dev, ev, tol)
				}
			}
		})
	}
}
