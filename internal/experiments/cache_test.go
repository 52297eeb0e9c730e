package experiments

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"contribmax/internal/cm"
	"contribmax/internal/im"
	"contribmax/internal/solvecache"
)

// TestSolveCacheWarmReplay resolves one Magic^S request per dataset, on the
// quick scale's largest instance, cold against an empty solve cache and
// then warm three times. The cold solve must miss the RR level exactly
// once; every warm replay must hit it and reproduce the cold result byte
// for byte, since the cache trades memory for time, never accuracy. Each
// solve draws a fresh PCG(17, 19) generator and names it to the cache:
// that identity is what makes the RR multiset reusable.
func TestSolveCacheWarmReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("resolves four datasets cold and warm")
	}
	for _, ds := range Datasets {
		t.Run(string(ds), func(t *testing.T) {
			sizes := sizesFor(ds, Quick)
			w, err := buildWorkload(ds, sizes[len(sizes)-1], rand.New(rand.NewPCG(3, 5)))
			if err != nil {
				t.Fatal(err)
			}
			_, outputs, err := evalOutputs(w)
			if err != nil {
				t.Fatal(err)
			}
			targets := sampleTargets(outputs, targetCount(Quick), rand.New(rand.NewPCG(11, 13)))
			if len(targets) == 0 {
				t.Fatal("no targets derived")
			}
			in := cm.Input{Program: w.Program, DB: w.DB, T2: targets, K: 5}
			c := solvecache.New(0)
			id := solvecache.Identity{
				Database: in.DB.Fingerprint(),
				Program:  solvecache.HashText(in.Program.String()),
				Rand:     "pcg:17:19",
			}
			solve := func() *cm.Result {
				t.Helper()
				r, err := cm.MagicSampledCM(in, cm.Options{
					Theta:   im.ThetaSpec{Explicit: 400},
					Rand:    rand.New(rand.NewPCG(17, 19)),
					Cache:   c,
					CacheID: id,
				})
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			cold := solve()
			if cold.Stats.CacheRRMisses != 1 {
				t.Fatalf("cold solve reports %d rr misses, want 1", cold.Stats.CacheRRMisses)
			}
			want := solveKey(cold)
			for rep := 0; rep < 3; rep++ {
				warm := solve()
				if warm.Stats.CacheRRHits == 0 {
					t.Errorf("warm replay %d missed the cache", rep)
				}
				if got := solveKey(warm); got != want {
					t.Errorf("warm replay %d diverged:\n  warm %s\n  cold %s", rep, got, want)
				}
			}
		})
	}
}

// solveKey fingerprints the deterministic content of a result: the same
// fields the cm golden battery pins.
func solveKey(r *cm.Result) string {
	return fmt.Sprintf("seeds=%v gains=%v est=%.9f rr=%d covered=%d",
		r.Seeds, r.SeedGains, r.EstContribution, r.Stats.NumRR, r.Stats.CoveredRR)
}
