package cm

import (
	"math/rand/v2"
	"time"

	"contribmax/internal/im"
	"contribmax/internal/wdgraph"
)

// GreedyMCOptions tunes GreedyMCCM.
type GreedyMCOptions struct {
	// Simulations is the number of forward Monte-Carlo samples per
	// marginal-gain estimate (default 200).
	Simulations int
	// Rand drives the simulations. nil means the fixed-seed PCG source
	// that Options.Rand defaults to.
	Rand *rand.Rand
}

// GreedyMCCM solves the CM instance with the original greedy framework of
// Kempe et al. [14], which predates RIS: materialize the full WD graph,
// then greedily add the candidate with the largest Monte-Carlo-estimated
// marginal contribution, re-simulating forward influence spread for every
// candidate at every round. Each estimate is the Estimator's forward
// simulation over the same graph.
//
// It has the same (1 − 1/e − ε) guarantee but costs
// O(k · |T1| · simulations · |G|) — the baseline the RIS-based algorithms
// (NaiveCM and the Magic variants) improve on. It exists here for
// completeness and for the ablation benchmark; use MagicSampledCM for real
// workloads.
func GreedyMCCM(in Input, opts GreedyMCOptions) (*Result, error) {
	sims := opts.Simulations
	if sims <= 0 {
		sims = 200
	}
	rng := Options{Rand: opts.Rand}.rng()
	start := time.Now()
	res := &Result{Algorithm: "GreedyMC"}

	e, inst, err := newEstimator(in)
	if err != nil {
		return nil, err
	}
	res.Stats.BuildTime = time.Since(start)
	recordBuild(&res.Stats, e.g)

	candNodes := make([]wdgraph.NodeID, len(inst.candidates))
	candKnown := make([]bool, len(inst.candidates))
	for i, h := range inst.candidates {
		candNodes[i], candKnown[i] = e.g.FactID(h.Pred, h.Tuple)
	}
	estimate := func(seeds []wdgraph.NodeID) float64 {
		if len(seeds) == 0 || len(e.targets) == 0 {
			return 0
		}
		sum, _ := e.simulate(seeds, sims, rng)
		return sum / float64(sims)
	}

	selStart := time.Now()
	k := in.K
	if k > len(inst.candidates) {
		k = len(inst.candidates)
	}
	var seeds []im.CandidateID
	var seedNodes []wdgraph.NodeID
	selected := make([]bool, len(inst.candidates))
	current := 0.0
	scratch := make([]wdgraph.NodeID, 0, k)
	for len(seeds) < k {
		best, bestGain := -1, -1.0
		for c := range inst.candidates {
			if selected[c] || !candKnown[c] {
				continue
			}
			scratch = append(scratch[:0], seedNodes...)
			scratch = append(scratch, candNodes[c])
			gain := estimate(scratch) - current
			if gain > bestGain {
				best, bestGain = c, gain
			}
		}
		if best < 0 {
			// Only unknown candidates remain: pad with them (zero gain).
			for c := range inst.candidates {
				if !selected[c] && len(seeds) < k {
					selected[c] = true
					seeds = append(seeds, im.CandidateID(c))
					res.SeedGains = append(res.SeedGains, 0)
				}
			}
			break
		}
		selected[best] = true
		seeds = append(seeds, im.CandidateID(best))
		seedNodes = append(seedNodes, candNodes[best])
		current += bestGain
		res.SeedGains = append(res.SeedGains, int(bestGain*float64(sims)))
	}
	res.Stats.SelectTime = time.Since(selStart)

	res.Seeds = inst.seedsToAtoms(seeds)
	res.EstContribution = estimate(seedNodes)
	res.Stats.TotalTime = time.Since(start)
	return res, nil
}
