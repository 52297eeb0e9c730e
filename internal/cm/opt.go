package cm

import (
	"fmt"
	"math/rand/v2"

	"contribmax/internal/ast"
	"contribmax/internal/im"
	"contribmax/internal/wdgraph"
)

// OPTResult is the outcome of the exhaustive OPT computation.
type OPTResult struct {
	// Seeds is the best k-size subset of T1 found.
	Seeds []ast.Atom
	// Contribution is the (RR-estimated) expected contribution of Seeds.
	Contribution float64
	// SubsetsExamined counts the k-subsets evaluated.
	SubsetsExamined int64
}

// BruteForceOPT computes the optimum of the CM instance by exhaustive
// search over all k-size subsets of T1, evaluating each subset's expected
// contribution on a shared pool of RR sets (common random numbers, which
// both sharpens the comparison between subsets and makes the search
// feasible: evaluating a subset is a coverage count, not a fresh
// simulation). With enough RR sets this converges to the true OPT; the
// Section V-C case study uses it as the oracle that Magic^S CM is compared
// against.
//
// The search space is C(|T1|, k); callers are expected to keep |T1| small
// (the paper does the same, restricting OPT to graphs where it is
// computable).
func BruteForceOPT(in Input, rrSets int, rng *rand.Rand) (*OPTResult, error) {
	inst, err := prepare(in, Options{})
	if err != nil {
		return nil, err
	}
	if rng == nil {
		rng = rand.New(rand.NewPCG(7, 13))
	}
	if rrSets <= 0 {
		rrSets = 10000
	}
	n := len(inst.candidates)
	k := in.K
	if k > n {
		k = n
	}
	const maxSubsets = 50_000_000
	if c := chooseCount(n, k); c < 0 || c > maxSubsets {
		return nil, fmt.Errorf("cm: BruteForceOPT search space C(%d,%d) too large", n, k)
	}

	// Build the full graph once; draw the shared RR pool as NaiveCM does.
	g, _, err := wdgraph.Build(in.Program, in.DB.Scratch(in.Program.EDBs()), wdgraph.BuildConfig{})
	if err != nil {
		return nil, err
	}
	pool := &solve{inst: inst, opts: Options{Theta: im.ThetaSpec{Explicit: rrSets}}, res: &Result{}}
	if err := pool.generateRR(rng, nil, newGraphWalk(g, inst).phase); err != nil {
		return nil, err
	}
	coll := pool.res.rrColl

	// Exhaustively evaluate all k-subsets. coveredBy counts, per RR set,
	// how many chosen candidates cover it; the recursion maintains the
	// running number of covered sets incrementally.
	coveredBy := make([]int32, coll.Len())
	covered := 0
	best := -1
	bestSubset := make([]int, k)
	cur := make([]int, 0, k)
	var examined int64

	var add func(c int)
	var remove func(c int)
	add = func(c int) {
		for _, si := range coll.MemberOf(im.CandidateID(c)) {
			if coveredBy[si] == 0 {
				covered++
			}
			coveredBy[si]++
		}
	}
	remove = func(c int) {
		for _, si := range coll.MemberOf(im.CandidateID(c)) {
			coveredBy[si]--
			if coveredBy[si] == 0 {
				covered--
			}
		}
	}

	var recurse func(start int)
	recurse = func(start int) {
		if len(cur) == k {
			examined++
			if covered > best {
				best = covered
				copy(bestSubset, cur)
			}
			return
		}
		// Not enough candidates left to complete the subset?
		need := k - len(cur)
		for c := start; c <= n-need; c++ {
			cur = append(cur, c)
			add(c)
			recurse(c + 1)
			remove(c)
			cur = cur[:len(cur)-1]
		}
	}
	recurse(0)

	res := &OPTResult{SubsetsExamined: examined}
	if best >= 0 {
		seeds := make([]im.CandidateID, k)
		for i, c := range bestSubset {
			seeds[i] = im.CandidateID(c)
		}
		res.Seeds = inst.seedsToAtoms(seeds)
		res.Contribution = float64(len(inst.targets)) * float64(best) / float64(coll.Len())
	}
	return res, nil
}

// chooseCount returns C(n, k), or -1 on overflow past ~2^62.
func chooseCount(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	var c int64 = 1
	for i := 1; i <= k; i++ {
		if c > (1<<62)/int64(n-k+i) {
			return -1
		}
		c = c * int64(n-k+i) / int64(i)
	}
	return c
}
