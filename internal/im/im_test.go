package im_test

import (
	"errors"
	"math/rand"
	randv2 "math/rand/v2"
	"testing"
	"testing/quick"

	"contribmax/internal/im"
)

func ids(xs ...int) []im.CandidateID {
	out := make([]im.CandidateID, len(xs))
	for i, x := range xs {
		out[i] = im.CandidateID(x)
	}
	return out
}

func TestRRCollectionBasics(t *testing.T) {
	c := im.NewRRCollection(5)
	c.Add(ids(0, 1))
	c.Add(ids(2))
	c.Add(nil) // empty RR set
	if c.Len() != 3 {
		t.Errorf("Len = %d", c.Len())
	}
	if c.TotalMembers() != 3 {
		t.Errorf("TotalMembers = %d", c.TotalMembers())
	}
	if got := c.CoverageOf(ids(1)); got != 1 {
		t.Errorf("CoverageOf(1) = %d", got)
	}
	if got := c.CoverageOf(ids(1, 2)); got != 2 {
		t.Errorf("CoverageOf(1,2) = %d", got)
	}
	if got := c.CoverageOf(ids(4)); got != 0 {
		t.Errorf("CoverageOf(4) = %d", got)
	}
}

func TestRRCollectionAddCopies(t *testing.T) {
	c := im.NewRRCollection(3)
	buf := ids(0, 1)
	c.Add(buf)
	buf[0] = 2
	if got := c.Set(0); got[0] != 0 {
		t.Error("Add did not copy members")
	}
}

func TestGreedyPicksMaximumCoverage(t *testing.T) {
	// Candidate 0 covers sets {0,1}; 1 covers {2}; 2 covers {1,2,3}.
	c := im.NewRRCollection(3)
	c.Add(ids(0))    // set 0
	c.Add(ids(0, 2)) // set 1
	c.Add(ids(1, 2)) // set 2
	c.Add(ids(2))    // set 3
	res := im.Greedy(c, 2)
	if len(res.Seeds) != 2 {
		t.Fatalf("seeds = %v", res.Seeds)
	}
	// Greedy: candidate 2 first (3 sets), then candidate 0 (adds set 0).
	if res.Seeds[0] != 2 || res.Seeds[1] != 0 {
		t.Errorf("seeds = %v, want [2 0]", res.Seeds)
	}
	if res.Covered != 4 {
		t.Errorf("covered = %d, want 4", res.Covered)
	}
	if res.Gains[0] != 3 || res.Gains[1] != 1 {
		t.Errorf("gains = %v", res.Gains)
	}
}

func TestGreedyDeterministicTieBreak(t *testing.T) {
	c := im.NewRRCollection(3)
	c.Add(ids(0, 1, 2))
	res := im.Greedy(c, 1)
	if res.Seeds[0] != 0 {
		t.Errorf("tie should break to lowest id, got %v", res.Seeds)
	}
}

func TestGreedyFillsWithZeroGain(t *testing.T) {
	c := im.NewRRCollection(3)
	c.Add(ids(0))
	res := im.Greedy(c, 2)
	if len(res.Seeds) != 2 {
		t.Fatalf("seeds = %v (want padded to k)", res.Seeds)
	}
	if res.Gains[1] != 0 {
		t.Errorf("second gain = %d, want 0", res.Gains[1])
	}
}

func TestGreedyKLargerThanUniverse(t *testing.T) {
	c := im.NewRRCollection(2)
	c.Add(ids(0))
	res := im.Greedy(c, 10)
	if len(res.Seeds) != 2 {
		t.Errorf("seeds = %v, want all 2 candidates", res.Seeds)
	}
}

// TestGreedyMatchesCoverageOf is a property test: the greedy result's
// Covered must equal CoverageOf(Seeds), and greedy must achieve at least
// (1 - 1/e) of the best single-shot coverage found by random search.
func TestGreedyMatchesCoverageOf(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(12) + 2
		c := im.NewRRCollection(n)
		nSets := r.Intn(30) + 1
		for i := 0; i < nSets; i++ {
			var set []im.CandidateID
			for j := 0; j < n; j++ {
				if r.Float64() < 0.25 {
					set = append(set, im.CandidateID(j))
				}
			}
			c.Add(set)
		}
		k := r.Intn(n) + 1
		res := im.Greedy(c, k)
		if res.Covered != c.CoverageOf(res.Seeds) {
			return false
		}
		// Greedy dominates any single random k-subset by the submodular
		// guarantee only in expectation vs OPT; but it must at least beat
		// every single candidate alone extended arbitrarily... check the
		// weaker invariant: covered never exceeds number of sets.
		return res.Covered <= c.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestGreedyAgainstExhaustiveSmall compares greedy coverage against the
// exhaustive optimum on tiny instances and asserts the (1 − 1/e) bound
// (for coverage, greedy actually guarantees ≥ (1 − (1−1/k)^k) ≥ 0.63·OPT).
func TestGreedyAgainstExhaustiveSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(8) + 2
		c := im.NewRRCollection(n)
		nSets := rng.Intn(20) + 1
		for i := 0; i < nSets; i++ {
			var set []im.CandidateID
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.3 {
					set = append(set, im.CandidateID(j))
				}
			}
			c.Add(set)
		}
		k := rng.Intn(3) + 1
		res := im.Greedy(c, k)
		best := 0
		// Exhaust all k-subsets.
		var rec func(start int, cur []im.CandidateID)
		rec = func(start int, cur []im.CandidateID) {
			if len(cur) == k {
				if cov := c.CoverageOf(cur); cov > best {
					best = cov
				}
				return
			}
			for i := start; i < n; i++ {
				rec(i+1, append(cur, im.CandidateID(i)))
			}
		}
		rec(0, nil)
		if float64(res.Covered) < 0.63*float64(best)-1e-9 {
			t.Fatalf("trial %d: greedy %d < 0.63·OPT (%d)", trial, res.Covered, best)
		}
	}
}

func TestThetaFractionDefault(t *testing.T) {
	var s im.ThetaSpec
	if got := s.Theta(1000, 100, 10); got != 30 {
		t.Errorf("default fraction theta = %d, want 30", got)
	}
	s.Fraction = 0.5
	if got := s.Theta(1000, 100, 10); got != 50 {
		t.Errorf("fraction theta = %d, want 50", got)
	}
	s.Fraction = 0.001
	if got := s.Theta(1000, 100, 10); got != 1 {
		t.Errorf("tiny fraction theta = %d, want >= 1", got)
	}
	s.Explicit = 7
	if got := s.Theta(1000, 100, 10); got != 7 {
		t.Errorf("explicit theta = %d, want 7", got)
	}
}

func TestThetaAuto(t *testing.T) {
	s := im.ThetaSpec{Auto: true, Epsilon: 0.1, Delta: 0.01}
	got := s.Theta(100, 50, 5)
	if got < 50 {
		t.Errorf("auto theta = %d, suspiciously small", got)
	}
	s.MaxAuto = 123
	if got := s.Theta(100, 50, 5); got != 123 {
		t.Errorf("capped auto theta = %d, want 123", got)
	}
	// Degenerate inputs.
	if got := (im.ThetaSpec{Auto: true}).Theta(0, 0, 0); got < 1 {
		t.Errorf("degenerate auto theta = %d", got)
	}
}

// TestIMMDriverDirect exerces im.IMM with a synthetic extender whose
// ground truth is known: every RR set contains candidate 0, so OPT = |T2|
// and the lower bound must approach it.
func TestIMMDriverDirect(t *testing.T) {
	rng := randv2.New(randv2.NewPCG(8, 8))
	extend := func(coll *im.RRCollection, n int) error {
		for range n {
			set := []im.CandidateID{0}
			if rng.Float64() < 0.5 {
				set = append(set, im.CandidateID(1+rng.IntN(9)))
			}
			coll.Add(set)
		}
		return nil
	}
	coll, stats, err := im.IMM(extend, im.IMMParams{
		Epsilon: 0.2, Delta: 0.05, NumTargets: 50, NumCandidates: 10, K: 1, MaxRR: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := im.Greedy(coll, 1)
	if coll.Len() != stats.TotalRR || stats.TotalRR <= 0 {
		t.Fatalf("stats = %+v len=%d", stats, coll.Len())
	}
	if len(res.Seeds) != 1 || res.Seeds[0] != 0 {
		t.Errorf("seeds = %v, want [0]", res.Seeds)
	}
	if res.Covered != coll.Len() {
		t.Errorf("covered = %d of %d (candidate 0 is in every set)", res.Covered, coll.Len())
	}
	// OPT = 50 (candidate 0 covers everything); LB must be ≤ OPT and
	// nontrivially large.
	if stats.LowerBound > 50+1e-9 || stats.LowerBound < 20 {
		t.Errorf("lower bound = %g, want in [20, 50]", stats.LowerBound)
	}
}

// TestIMMCap verifies MaxRR bounds generation.
func TestIMMCap(t *testing.T) {
	extend := func(coll *im.RRCollection, n int) error { // nothing ever covered
		for range n {
			coll.Add(nil)
		}
		return nil
	}
	coll, stats, err := im.IMM(extend, im.IMMParams{
		Epsilon: 0.05, NumTargets: 1000, NumCandidates: 100, K: 5, MaxRR: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if coll.Len() > 500 {
		t.Errorf("generated %d > cap 500", coll.Len())
	}
	if !stats.Capped {
		t.Error("cap should be reported")
	}
}

// TestIMMStopsOnExtendError checks that IMM returns the extender's first
// error at once instead of running further rounds.
func TestIMMStopsOnExtendError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	extend := func(coll *im.RRCollection, n int) error {
		calls++
		return boom
	}
	coll, _, err := im.IMM(extend, im.IMMParams{
		Epsilon: 0.2, NumTargets: 1000, NumCandidates: 100, K: 5, MaxRR: 5000,
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if calls != 1 || coll.Len() != 0 {
		t.Errorf("%d extend calls, %d sets after the first error; want 1 and 0", calls, coll.Len())
	}
}

// TestGreedyPartitionUnit exercises the matroid selection directly.
func TestGreedyPartitionUnit(t *testing.T) {
	c := im.NewRRCollection(4)
	// Candidates 0,1 (group 0) cover a lot; candidates 2,3 (group 1) less.
	c.Add(ids(0))
	c.Add(ids(0, 1))
	c.Add(ids(1))
	c.Add(ids(2))
	c.Add(ids(3))
	group := []int32{0, 0, 1, 1}

	res := im.GreedyPartition(c, 2, group, 1)
	if len(res.Seeds) != 2 {
		t.Fatalf("seeds = %v", res.Seeds)
	}
	if g0, g1 := group[res.Seeds[0]], group[res.Seeds[1]]; g0 == g1 {
		t.Errorf("both seeds from group %d: %v", g0, res.Seeds)
	}
	// First pick is still the global best (candidate 0, 2 sets).
	if res.Seeds[0] != 0 {
		t.Errorf("first seed = %d, want 0", res.Seeds[0])
	}

	// maxPerGroup=2 degenerates to plain greedy.
	unres := im.GreedyPartition(c, 2, group, 2)
	plain := im.Greedy(c, 2)
	if unres.Covered != plain.Covered {
		t.Errorf("maxPerGroup=2 covered %d, plain %d", unres.Covered, plain.Covered)
	}
	// maxPerGroup=0 must behave like plain greedy too.
	zero := im.GreedyPartition(c, 2, group, 0)
	if zero.Covered != plain.Covered {
		t.Errorf("maxPerGroup=0 covered %d, plain %d", zero.Covered, plain.Covered)
	}

	// Matroid exhaustion: k=4 but only 2 groups with cap 1.
	small := im.GreedyPartition(c, 4, group, 1)
	if len(small.Seeds) != 2 {
		t.Errorf("matroid should cap at 2 seeds, got %v", small.Seeds)
	}
}
