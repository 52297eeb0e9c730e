package cm_test

import (
	"math/rand/v2"
	"testing"

	"contribmax/internal/cm"
	"contribmax/internal/im"
)

// TestPlanCacheDeterministic asserts the plan cache actually engages on the
// Magic^S path — a solve compiles one engine per RR set, so every rule
// family past the first compilation must hit — and that the hit/miss
// accounting is reproducible run over run and across Parallelism levels
// (plans are built under the cache lock, so the counts are a function of
// the workload, not the schedule).
func TestPlanCacheDeterministic(t *testing.T) {
	in := goldenInstance(t)
	run := func(par int) (built, hits, reordered int64) {
		t.Helper()
		res, err := cm.MagicCM(in, cm.Options{
			Theta:       im.ThetaSpec{Explicit: 120},
			Rand:        rand.New(rand.NewPCG(17, 23)),
			Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.PlansBuilt, res.Stats.PlanCacheHits, res.Stats.PlanAtomsReordered
	}
	built, hits, reordered := run(1)
	if built == 0 {
		t.Fatal("MagicCM solve built no plans with planning on")
	}
	if hits == 0 {
		t.Fatal("MagicCM solve recorded no plan-cache hits: the cache never engaged across RR-set compilations")
	}
	if hits < built {
		t.Errorf("hits (%d) < built (%d): expected every rule family to hit after its first compilation", hits, built)
	}
	for _, par := range []int{1, 1, 4, 8} {
		b, h, r := run(par)
		if b != built || h != hits || r != reordered {
			t.Errorf("parallelism %d: cache counts built=%d hits=%d reordered=%d, want %d/%d/%d",
				par, b, h, r, built, hits, reordered)
		}
	}
}
