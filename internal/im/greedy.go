package im

// GreedyResult is the outcome of the greedy maximum-coverage phase.
type GreedyResult struct {
	// Seeds are the selected candidates, in selection order. Fewer than k
	// are returned when additional picks would add zero marginal coverage
	// and no positive-gain candidate remains, or when the universe is
	// smaller than k.
	Seeds []CandidateID
	// Gains[i] is the marginal number of RR sets newly covered by Seeds[i].
	Gains []int
	// Covered is the total number of covered RR sets.
	Covered int
}

// GreedyPartition runs the greedy maximum-coverage selection under a
// partition-matroid constraint: candidates are partitioned into groups
// (group[c] is candidate c's group id) and at most maxPerGroup seeds may
// come from any one group. This implements the diversification constraint
// the paper's conclusions propose as future work ("require that every
// selected database tuple will come from a different table" — groups = the
// tuples' relations, maxPerGroup = 1). Greedy under a partition matroid
// retains a 1/2-approximation of the constrained optimum.
//
// Candidates from saturated groups are skipped; when every remaining
// positive-gain candidate is blocked, remaining seats are filled with
// zero-gain candidates from unsaturated groups (fewer than k seeds are
// returned if the matroid itself cannot supply k). maxPerGroup <= 0 is
// plain Greedy.
func GreedyPartition(c *RRCollection, k int, group []int32, maxPerGroup int) GreedyResult {
	if maxPerGroup <= 0 {
		return Greedy(c, k)
	}
	return greedy(c, k, &partition{group: group, max: maxPerGroup, count: map[int32]int{}})
}

// Greedy runs the classic greedy algorithm for maximum coverage over the RR
// sets: repeatedly pick the candidate covering the most not-yet-covered
// sets. This achieves the optimal (1 - 1/e) approximation of the coverage
// function, which the RIS analysis lifts to the contribution function.
//
// Ties break toward the lower candidate id, making selection deterministic
// given the RR sets.
//
// When fewer than k candidates have positive marginal gain, the remaining
// seats are filled with arbitrary unselected candidates (zero gain), since
// a k-set is what the CM problem asks for; Gains records the zeros.
func Greedy(c *RRCollection, k int) GreedyResult { return greedy(c, k, nil) }

// partition is GreedyPartition's matroid: each candidate's group and the
// seeds taken from each group so far.
type partition struct {
	group []int32
	max   int
	count map[int32]int
}

// of returns cand's group; candidates past the group table share group -1.
func (p *partition) of(cand int) int32 {
	if cand < len(p.group) {
		return p.group[cand]
	}
	return -1
}

// greedy is the selection loop of Greedy and GreedyPartition. part, when
// non-nil, makes candidates of saturated groups ineligible; the loop ends
// early only when no eligible candidate is left.
func greedy(c *RRCollection, k int, part *partition) GreedyResult {
	c.Finalize()
	n := c.numCandidates
	if k > n {
		k = n
	}
	deg := make([]int, n)
	for cand := 0; cand < n; cand++ {
		deg[cand] = c.Degree(CandidateID(cand))
	}
	coveredSet := make([]bool, c.Len())
	selected := make([]bool, n)

	res := GreedyResult{}
	for len(res.Seeds) < k {
		best, bestDeg := -1, -1
		for cand := 0; cand < n; cand++ {
			if selected[cand] || deg[cand] <= bestDeg {
				continue
			}
			if part != nil && part.count[part.of(cand)] >= part.max {
				continue
			}
			best, bestDeg = cand, deg[cand]
		}
		if best < 0 {
			break
		}
		selected[best] = true
		if part != nil {
			part.count[part.of(best)]++
		}
		res.Seeds = append(res.Seeds, CandidateID(best))
		res.Gains = append(res.Gains, bestDeg)
		res.Covered += bestDeg
		for _, si := range c.MemberOf(CandidateID(best)) {
			if coveredSet[si] {
				continue
			}
			coveredSet[si] = true
			for _, m := range c.Set(int(si)) {
				deg[m]--
			}
		}
	}
	return res
}
