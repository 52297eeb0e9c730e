package cm

import (
	"time"

	"contribmax/internal/im"
	"contribmax/internal/wdgraph"
)

// GreedyMCOptions tunes GreedyMCCM.
type GreedyMCOptions struct {
	// Simulations is the number of forward Monte-Carlo samples per
	// marginal-gain estimate (default 200).
	Simulations int
	// Options supplies the randomness source (Theta is ignored — this
	// algorithm does not use RR sets).
	Options
}

// GreedyMCCM solves the CM instance with the original greedy framework of
// Kempe et al. [14], which predates RIS: materialize the full WD graph,
// then greedily add the candidate with the largest Monte-Carlo-estimated
// marginal contribution, re-simulating forward influence spread for every
// candidate at every round.
//
// It has the same (1 − 1/e − ε) guarantee but costs
// O(k · |T1| · simulations · |G|) — the baseline the RIS-based algorithms
// (NaiveCM and the Magic variants) improve on. It exists here for
// completeness and for the ablation benchmark; use MagicSampledCM for real
// workloads.
func GreedyMCCM(in Input, opts GreedyMCOptions) (*Result, error) {
	inst, err := prepare(in, Options{})
	if err != nil {
		return nil, err
	}
	if opts.Simulations <= 0 {
		opts.Simulations = 200
	}
	rng := opts.rng()
	start := time.Now()
	res := &Result{Algorithm: "GreedyMC"}

	buildStart := time.Now()
	g, _, err := wdgraph.Build(in.Program, in.DB.Scratch(in.Program.EDBs()), wdgraph.BuildConfig{})
	if err != nil {
		return nil, err
	}
	res.Stats.BuildTime = time.Since(buildStart)
	recordBuild(&res.Stats, g)

	// Candidate and target node ids.
	candNodes := make([]wdgraph.NodeID, len(inst.candidates))
	candKnown := make([]bool, len(inst.candidates))
	for i, h := range inst.candidates {
		candNodes[i], candKnown[i] = g.FactID(h.Pred, h.Tuple)
	}
	isTarget := make([]bool, g.NumNodes())
	anyTarget := false
	for _, t := range inst.targets {
		if id, ok := g.FactID(t.Pred, t.Tuple); ok {
			isTarget[id] = true
			anyTarget = true
		}
	}

	walker := wdgraph.NewWalker(g)
	estimate := func(seeds []wdgraph.NodeID) float64 {
		if len(seeds) == 0 || !anyTarget {
			return 0
		}
		total := 0
		for s := 0; s < opts.Simulations; s++ {
			walker.ForwardReach(seeds, rng, func(v wdgraph.NodeID) {
				if isTarget[v] {
					total++
				}
			})
		}
		return float64(total) / float64(opts.Simulations)
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
		res.SeedGains = append(res.SeedGains, int(bestGain*float64(opts.Simulations)))
	}
	res.Stats.SelectTime = time.Since(selStart)

	res.Seeds = inst.seedsToAtoms(seeds)
	res.EstContribution = estimate(seedNodes)
	res.Stats.TotalTime = time.Since(start)
	return res, nil
}
