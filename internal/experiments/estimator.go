package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"

	"contribmax/internal/cm"
	"contribmax/internal/im"
	"contribmax/internal/obs/journal"
	"contribmax/internal/workload"
)

// EstimatorSummary is one instance's three-way estimator measurement: the
// same contribution-maximization input solved by the exact lifted tier,
// the RIS sampler (MagicCM), and the DNF possible-world sampler, on a
// hierarchical power-law workload where all three apply. The exact value
// is deterministic (a closed-form computation over pinned inputs); the
// sampler estimates carry sampling noise, summarized by MaxDeviation —
// the largest |estimate − exact value of that sampler's own seed set|.
type EstimatorSummary struct {
	Dataset string  `json:"dataset"`
	Alpha   float64 `json:"alpha"`
	Targets int     `json:"targets"`
	// Solve wall times, best of 3 after one warmup, interleaved.
	ExactMillis float64 `json:"exact_millis"`
	RISMillis   float64 `json:"ris_millis"`
	DNFMillis   float64 `json:"dnf_millis"`
	// ExactValue is the exact tier's greedy objective — deterministic, so
	// report diffs treat drift as a semantic change, not noise.
	ExactValue float64 `json:"exact_value"`
	RISEst     float64 `json:"ris_est"`
	DNFEst     float64 `json:"dnf_est"`
	// MaxDeviation is max over the two samplers of the absolute gap to the
	// exact contribution of that sampler's chosen seeds.
	MaxDeviation float64 `json:"max_deviation"`
	// LineageClauses totals the exact tier's per-target DNF sizes — the
	// cost driver of lifted evaluation.
	LineageClauses int `json:"lineage_clauses"`
}

// estimatorTheta is the A/B's sample budget per sampled solve. Small
// enough to keep the quick scale fast, large enough that the 6σ agreement
// gate (see estimatorMeasure) has negligible flake probability.
const estimatorTheta = 400

// EstimatorSummaries runs the three-way estimator A/B over the power-law
// family at increasing skew: identical inputs and pinned seeds per
// instance, solved exactly, by RIS, and by DNF world sampling. The
// power-law program is hierarchical by construction, so an exact-tier
// fallback is reported as an error (the eligibility analysis regressed),
// as is a sampler straying beyond 6σ of the exact value of its own seeds.
func EstimatorSummaries() ([]EstimatorSummary, error) {
	alphas := []float64{0.5, 1.0, 2.0}
	out := make([]EstimatorSummary, 0, len(alphas))
	for _, alpha := range alphas {
		p := workload.DefaultPowerLawParams(40)
		p.Alpha = alpha
		w := workload.PowerLaw(p, rand.New(rand.NewPCG(3, 5)))
		_, outputs, err := evalOutputs(w)
		if err != nil {
			return nil, err
		}
		targets := sampleTargets(outputs, targetCount(Quick), rand.New(rand.NewPCG(11, 13)))
		if len(targets) == 0 {
			return nil, fmt.Errorf("powerlaw alpha=%g derived no targets", alpha)
		}
		name := fmt.Sprintf("PowerLaw-a%g", alpha)
		s, err := estimatorMeasure(name, alpha, cm.Input{Program: w.Program, DB: w.DB, T2: targets, K: 5})
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// estimatorMeasure times the three solvers on one input: one untimed
// warmup each, then best-of-3 per solver, interleaved so allocator and
// scheduler noise don't bias any leg.
func estimatorMeasure(name string, alpha float64, in cm.Input) (EstimatorSummary, error) {
	exactRun := func() (*cm.Result, error) {
		return cm.ExactCM(in, cm.Options{
			Theta: im.ThetaSpec{Explicit: estimatorTheta},
			Rand:  rand.New(rand.NewPCG(17, 19)),
		})
	}
	risRun := func() (*cm.Result, error) {
		return cm.MagicCM(in, cm.Options{
			Theta: im.ThetaSpec{Explicit: estimatorTheta},
			Rand:  rand.New(rand.NewPCG(17, 19)),
		})
	}
	dnfRun := func() (*cm.Result, error) {
		return cm.DNFCM(in, cm.Options{
			Theta: im.ThetaSpec{Explicit: estimatorTheta},
			Rand:  rand.New(rand.NewPCG(17, 19)),
		})
	}
	for _, warm := range []func() (*cm.Result, error){exactRun, risRun, dnfRun} {
		if _, err := warm(); err != nil {
			return EstimatorSummary{}, fmt.Errorf("instance %s (warmup): %w", name, err)
		}
	}
	best := func(run func() (*cm.Result, error)) (*cm.Result, error) {
		var b *cm.Result
		for rep := 0; rep < 3; rep++ {
			r, err := run()
			if err != nil {
				return nil, err
			}
			if b == nil || r.Stats.TotalTime < b.Stats.TotalTime {
				b = r
			}
		}
		return b, nil
	}
	exact, err := best(exactRun)
	if err != nil {
		return EstimatorSummary{}, fmt.Errorf("instance %s (exact): %w", name, err)
	}
	if exact.Stats.ExactFallback != "" {
		return EstimatorSummary{}, fmt.Errorf("instance %s: exact tier fell back on a hierarchical program: %s",
			name, exact.Stats.ExactFallback)
	}
	ris, err := best(risRun)
	if err != nil {
		return EstimatorSummary{}, fmt.Errorf("instance %s (ris): %w", name, err)
	}
	dnf, err := best(dnfRun)
	if err != nil {
		return EstimatorSummary{}, fmt.Errorf("instance %s (dnf): %w", name, err)
	}
	maxDev := 0.0
	for _, sampled := range []*cm.Result{ris, dnf} {
		ev, err := cm.ExactContribution(in, sampled.Seeds, cm.Options{})
		if err != nil {
			return EstimatorSummary{}, fmt.Errorf("instance %s (%s seeds): %w", name, sampled.Algorithm, err)
		}
		dev := math.Abs(sampled.EstContribution - ev)
		tol := 6*sampled.EstContribution*journal.ErrProxy(sampled.Stats.CoveredRR, estimatorTheta) +
			3*float64(len(in.T2))/math.Sqrt(estimatorTheta)
		if dev > tol {
			return EstimatorSummary{}, fmt.Errorf(
				"instance %s: %s estimate %.4f strays %.4f from the exact value %.4f of its seeds (tol %.4f)",
				name, sampled.Algorithm, sampled.EstContribution, dev, ev, tol)
		}
		if dev > maxDev {
			maxDev = dev
		}
	}
	return EstimatorSummary{
		Dataset:        name,
		Alpha:          alpha,
		Targets:        len(in.T2),
		ExactMillis:    millis(exact.Stats.TotalTime),
		RISMillis:      millis(ris.Stats.TotalTime),
		DNFMillis:      millis(dnf.Stats.TotalTime),
		ExactValue:     exact.EstContribution,
		RISEst:         ris.EstContribution,
		DNFEst:         dnf.EstContribution,
		MaxDeviation:   maxDev,
		LineageClauses: exact.Stats.LineageClauses,
	}, nil
}

// EstimatorTable renders summaries as a printable cmbench table.
func EstimatorTable(summaries []EstimatorSummary) *Table {
	t := &Table{
		Title:  "Estimator A/B (exact vs RIS vs DNF, power-law quick scale)",
		XLabel: "instance",
		YLabel: "ms (and contribution values)",
		Series: []string{"exact ms", "ris ms", "dnf ms", "exact value", "max deviation"},
	}
	for _, s := range summaries {
		t.AddRow(s.Dataset, s.ExactMillis, s.RISMillis, s.DNFMillis, s.ExactValue, s.MaxDeviation)
	}
	return t
}
