package cm

import (
	"sort"
	"time"

	"contribmax/internal/im"
	"contribmax/internal/wdgraph"
)

// NaiveCM is Algorithm 2: materialize the full WD graph with Algorithm 1,
// then run the adjusted RIS-based IM algorithm over it — RR roots sampled
// from T2, RR members filtered to T1, greedy maximum coverage for the seed
// selection. It provides a (1 − 1/e − ε)-approximation with probability
// ≥ 1 − δ (Proposition 4.1) but materializes a graph polynomial in |D|,
// which is what the optimized variants avoid.
func NaiveCM(in Input, opts Options) (*Result, error) {
	return run(in, opts, "NaiveCM", cached(naiveCM))
}

func naiveCM(s *solve) error {
	// Phase 1: full WD graph (Algorithm 1). Definition 3.1 includes a node
	// for every edb fact in D, hence the preload.
	g, err := s.fullGraph()
	if err != nil {
		return err
	}
	// Phase 2: RR sets via reverse sampled walks from random T2 roots.
	return s.generateRR(s.opts.rng(), nil, newGraphWalk(g, s.inst).phase)
}

// candidateIndex maps every node of g to its T1 candidate id, or -1.
func candidateIndex(g *wdgraph.Graph, inst *instance) []int32 {
	out := make([]int32, g.NumNodes())
	for i := range out {
		out[i] = -1
	}
	for ci, h := range inst.candidates {
		if id, ok := g.FactID(h.Pred, h.Tuple); ok {
			out[id] = int32(ci)
		}
	}
	return out
}

// recordBuild accumulates one constructed graph into the stats.
func recordBuild(s *Stats, g *wdgraph.Graph) { recordGraph(s, g.NumNodes(), g.NumEdges()) }

// recordGraph accumulates the size of the (sub)graph one build or one RR
// set was drawn from into the stats.
func recordGraph(s *Stats, n, e int) {
	s.GraphBuilds++
	s.TotalNodes += int64(n)
	s.TotalEdges += int64(e)
	if n > s.MaxNodes {
		s.MaxNodes = n
	}
	if e > s.MaxEdges {
		s.MaxEdges = e
	}
	if n+e > s.PeakResidentSize {
		s.PeakResidentSize = n + e
	}
}

// finishSelection runs the greedy coverage phase over the RR collection
// and fills the result from it. The solve's close is its one caller.
func (s *solve) finishSelection() {
	inst, opts, res := s.inst, s.opts, s.res
	selStart := time.Now()
	var gr im.GreedyResult
	if opts.MaxSeedsPerRelation > 0 {
		gr = im.GreedyPartition(res.rrColl, inst.in.K, inst.relationGroups(), opts.MaxSeedsPerRelation)
	} else {
		gr = im.Greedy(res.rrColl, inst.in.K)
	}
	res.Stats.SelectTime = time.Since(selStart)
	res.Stats.CoveredRR = gr.Covered
	res.Seeds = inst.seedsToAtoms(gr.Seeds)
	res.SeedGains = gr.Gains
	if res.rrColl.Len() > 0 {
		res.EstContribution = float64(len(inst.targets)) * float64(gr.Covered) / float64(res.rrColl.Len())
	}
	if opts.RankCandidates {
		res.Ranking = rankCandidates(inst, res.rrColl)
	}
}

// rankCandidates computes every candidate's individual coverage over the
// RR pool and returns the descending ranking.
func rankCandidates(inst *instance, coll *im.RRCollection) []CandidateScore {
	// Distinct candidates per set: a candidate may appear once per set at
	// most (RR walks visit each node once), so its index degree is its
	// coverage; the shared memberOf index makes this one lookup each.
	counts := make([]int, len(inst.candidates))
	for c := range counts {
		counts[c] = coll.Degree(im.CandidateID(c))
	}
	theta := coll.Len()
	out := make([]CandidateScore, len(inst.candidates))
	for c := range inst.candidates {
		out[c] = CandidateScore{
			Fact:     inst.atomOf(inst.candidates[c]),
			Coverage: counts[c],
		}
		if theta > 0 {
			out[c].EstContribution = float64(len(inst.targets)) * float64(counts[c]) / float64(theta)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Coverage > out[j].Coverage })
	return out
}
