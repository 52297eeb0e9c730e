package cm_test

import (
	"math/rand/v2"
	"sync"
	"testing"

	"contribmax/internal/cm"
	"contribmax/internal/im"
	"contribmax/internal/solvecache"
)

// cachedOpts is the pinned configuration for the cache tests: a fixed
// explicit θ, a fresh identified PCG stream per solve (the cache contract:
// Rand identity asserts the stream, so each solve gets a fresh generator
// with the same seed), and the shared cache under test.
func cachedOpts(c *solvecache.Cache) cm.Options {
	return cm.Options{
		Theta:   im.ThetaSpec{Explicit: 120},
		Rand:    rand.New(rand.NewPCG(17, 23)),
		Cache:   c,
		CacheID: solvecache.Identity{Rand: "pcg:17:23"},
	}
}

// TestCacheByteIdenticalResults proves the headline guarantee: for every
// algorithm, a solve served from the cache is byte-identical — seeds,
// gains, estimate, RR accounting — to the cold solve, which in turn equals
// the no-cache baseline (the same fingerprints the golden battery pins).
func TestCacheByteIdenticalResults(t *testing.T) {
	in := goldenInstance(t)
	for _, al := range algos {
		t.Run(al.name, func(t *testing.T) {
			base, err := al.run(in, cm.Options{
				Theta: im.ThetaSpec{Explicit: 120},
				Rand:  rand.New(rand.NewPCG(17, 23)),
			})
			if err != nil {
				t.Fatal(err)
			}
			c := solvecache.New(0)
			cold, err := al.run(in, cachedOpts(c))
			if err != nil {
				t.Fatal(err)
			}
			if cold.Stats.CacheRRMisses != 1 || cold.Stats.CacheRRHits != 0 {
				t.Fatalf("cold solve: rr misses=%d hits=%d, want 1/0",
					cold.Stats.CacheRRMisses, cold.Stats.CacheRRHits)
			}
			warm, err := al.run(in, cachedOpts(c))
			if err != nil {
				t.Fatal(err)
			}
			if warm.Stats.CacheRRHits != 1 || warm.Stats.CacheRRMisses != 0 {
				t.Fatalf("warm solve: rr hits=%d misses=%d, want 1/0",
					warm.Stats.CacheRRHits, warm.Stats.CacheRRMisses)
			}
			if warm.Stats.CacheBytesReused <= 0 {
				t.Fatal("warm solve reports no bytes reused")
			}
			want := resultFingerprint(base)
			if got := resultFingerprint(cold); got != want {
				t.Errorf("cold cached solve diverged:\n  got  %s\n  want %s", got, want)
			}
			if got := resultFingerprint(warm); got != want {
				t.Errorf("warm cached solve diverged:\n  got  %s\n  want %s", got, want)
			}
			// Generation-cost stats replay identically (times excluded).
			if warm.Stats.GraphBuilds != cold.Stats.GraphBuilds ||
				warm.Stats.TotalNodes != cold.Stats.TotalNodes ||
				warm.Stats.TotalEdges != cold.Stats.TotalEdges ||
				warm.Stats.PeakResidentSize != cold.Stats.PeakResidentSize ||
				warm.Stats.Groundings != cold.Stats.Groundings ||
				warm.Stats.GroundAborts != cold.Stats.GroundAborts {
				t.Errorf("warm stats shape diverged: cold=%+v warm=%+v", cold.Stats, warm.Stats)
			}
			if al.name == "MagicSCM" && cold.Stats.Groundings == 0 {
				t.Error("Magic^S solve grounded no target: the replayed route counters are vacuous")
			}
		})
	}
}

// TestCacheKSweepSharesRRCollection locks in the key design: in fixed-θ
// mode generation never reads K (only ThetaSpec.Auto does, and the
// resolved θ captures that), so a k-sweep over one instance reuses one RR
// collection and pays selection only. Each K's result still matches its
// own no-cache baseline.
func TestCacheKSweepSharesRRCollection(t *testing.T) {
	in := goldenInstance(t)
	c := solvecache.New(0)
	for i, k := range []int{1, 2, 3, 5} {
		kin := in
		kin.K = k
		res, err := cm.MagicSampledCM(kin, cachedOpts(c))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		wantHits, wantMisses := int64(1), int64(0)
		if i == 0 {
			wantHits, wantMisses = 0, 1
		}
		if res.Stats.CacheRRHits != wantHits || res.Stats.CacheRRMisses != wantMisses {
			t.Fatalf("k=%d: rr hits=%d misses=%d, want %d/%d",
				k, res.Stats.CacheRRHits, res.Stats.CacheRRMisses, wantHits, wantMisses)
		}
		base, err := cm.MagicSampledCM(kin, cm.Options{
			Theta: im.ThetaSpec{Explicit: 120},
			Rand:  rand.New(rand.NewPCG(17, 23)),
		})
		if err != nil {
			t.Fatalf("k=%d baseline: %v", k, err)
		}
		if got, want := resultFingerprint(res), resultFingerprint(base); got != want {
			t.Errorf("k=%d diverged from baseline:\n  got  %s\n  want %s", k, got, want)
		}
	}
	if st := c.Stats(); st.RRMisses != 1 || st.RRHits != 3 {
		t.Fatalf("cache stats after sweep: %+v, want 1 miss / 3 hits", st)
	}
}

// TestCacheSharedAcrossParallelism: Parallelism 0 means one slot worker, so
// a P=0 and a P=4 solve of one identity draw the same RR collection and
// share one cache entry — the second solve is a hit, byte-identical to the
// first — for every algorithm.
func TestCacheSharedAcrossParallelism(t *testing.T) {
	in := goldenInstance(t)
	for _, al := range algos {
		t.Run(al.name, func(t *testing.T) {
			c := solvecache.New(0)
			cold, err := al.run(in, cachedOpts(c))
			if err != nil {
				t.Fatal(err)
			}
			opts := cachedOpts(c)
			opts.Parallelism = 4
			warm, err := al.run(in, opts)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Stats.CacheRRMisses != 1 || warm.Stats.CacheRRHits != 1 || warm.Stats.CacheRRMisses != 0 {
				t.Fatalf("rr misses/hits: P=0 %d/%d, P=4 %d/%d; want 1/0 then 0/1",
					cold.Stats.CacheRRMisses, cold.Stats.CacheRRHits, warm.Stats.CacheRRMisses, warm.Stats.CacheRRHits)
			}
			if got, want := resultFingerprint(warm), resultFingerprint(cold); got != want {
				t.Errorf("P=4 cache hit diverged from the P=0 solve:\n  got  %s\n  want %s", got, want)
			}
		})
	}
}

// TestCacheGraphReusedAcrossTheta exercises the graph store alone: two
// NaiveCM solves with different θ share the full WD graph (same database,
// program, config) while generating distinct RR collections.
func TestCacheGraphReusedAcrossTheta(t *testing.T) {
	in := goldenInstance(t)
	c := solvecache.New(0)
	first, err := cm.NaiveCM(in, cachedOpts(c))
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.CacheGraphMisses != 1 || first.Stats.CacheGraphHits != 0 {
		t.Fatalf("first solve: graph misses=%d hits=%d, want 1/0",
			first.Stats.CacheGraphMisses, first.Stats.CacheGraphHits)
	}
	opts := cachedOpts(c)
	opts.Theta = im.ThetaSpec{Explicit: 150}
	second, err := cm.NaiveCM(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.CacheGraphHits != 1 || second.Stats.CacheRRHits != 0 {
		t.Fatalf("second solve: graph hits=%d rr hits=%d, want graph hit without rr hit",
			second.Stats.CacheGraphHits, second.Stats.CacheRRHits)
	}
	base, err := cm.NaiveCM(in, cm.Options{
		Theta: im.ThetaSpec{Explicit: 150},
		Rand:  rand.New(rand.NewPCG(17, 23)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultFingerprint(second), resultFingerprint(base); got != want {
		t.Errorf("graph-hit solve diverged from baseline:\n  got  %s\n  want %s", got, want)
	}
}

// TestCacheUnidentifiedRandSkipsRRStore: a caller-supplied Rand without an
// asserted identity makes the RR multiset uncacheable, but content-keyed
// graph caching still applies.
func TestCacheUnidentifiedRandSkipsRRStore(t *testing.T) {
	in := goldenInstance(t)
	c := solvecache.New(0)
	opts := func() cm.Options {
		return cm.Options{
			Theta: im.ThetaSpec{Explicit: 120},
			Rand:  rand.New(rand.NewPCG(17, 23)),
			Cache: c,
		}
	}
	if _, err := cm.NaiveCM(in, opts()); err != nil {
		t.Fatal(err)
	}
	second, err := cm.NaiveCM(in, opts())
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.RRHits != 0 || st.RRMisses != 0 {
		t.Fatalf("unidentified rand must bypass the RR store: %+v", st)
	}
	if second.Stats.CacheGraphHits != 1 {
		t.Fatalf("graph hits=%d, want 1 (content-keyed, rand-independent)", second.Stats.CacheGraphHits)
	}
}

// TestCacheConcurrentSolvesSingleFlight: identical concurrent solves share
// one generation — the cache records exactly one RR miss — and every
// caller gets the byte-identical result.
func TestCacheConcurrentSolvesSingleFlight(t *testing.T) {
	in := goldenInstance(t)
	c := solvecache.New(0)
	base, err := cm.MagicSampledCM(in, cm.Options{
		Theta: im.ThetaSpec{Explicit: 120},
		Rand:  rand.New(rand.NewPCG(17, 23)),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := resultFingerprint(base)

	const workers = 6
	var wg sync.WaitGroup
	results := make([]*cm.Result, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = cm.MagicSampledCM(in, cachedOpts(c))
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if got := resultFingerprint(results[i]); got != want {
			t.Errorf("worker %d diverged:\n  got  %s\n  want %s", i, got, want)
		}
	}
	if st := c.Stats(); st.RRMisses != 1 {
		t.Fatalf("concurrent identical solves ran %d generations, want 1 (%+v)", st.RRMisses, st)
	}
}
