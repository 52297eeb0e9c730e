package im_test

// Golden RR-stream tests for the arena-backed collection: the selection
// algorithms must be insensitive to whether (and when) the memberOf index
// was finalized, and the lazily rebuilt index must stay correct when the
// adaptive IMM loop interleaves Add with selection.

import (
	"reflect"
	"testing"

	randv2 "math/rand/v2"

	"contribmax/internal/im"
)

// randomStream returns the same pseudorandom RR stream every call: numSets
// sets over numCands candidates, skewed toward low ids.
func randomStream(numCands, numSets int) [][]im.CandidateID {
	rng := randv2.New(randv2.NewPCG(101, 73))
	out := make([][]im.CandidateID, numSets)
	for i := range out {
		n := rng.IntN(8)
		set := make([]im.CandidateID, 0, n)
		seen := map[im.CandidateID]bool{}
		for j := 0; j < n; j++ {
			c := im.CandidateID(rng.ExpFloat64() * float64(numCands) / 5)
			if int(c) >= numCands || seen[c] {
				continue
			}
			seen[c] = true
			set = append(set, c)
		}
		out[i] = set
	}
	return out
}

func collectionOf(numCands int, stream [][]im.CandidateID) *im.RRCollection {
	c := im.NewRRCollection(numCands)
	for _, s := range stream {
		c.Add(s)
	}
	return c
}

// TestSelectionUnchangedByFinalize runs every selection algorithm on two
// collections holding the identical RR stream — one finalized explicitly
// up front, one left to finalize lazily — and requires identical seeds,
// gains, and coverage.
func TestSelectionUnchangedByFinalize(t *testing.T) {
	const numCands, numSets, k = 60, 400, 5
	stream := randomStream(numCands, numSets)
	group := make([]int32, numCands)
	for i := range group {
		group[i] = int32(i % 4)
	}
	algos := map[string]func(*im.RRCollection) im.GreedyResult{
		"greedy":    func(c *im.RRCollection) im.GreedyResult { return im.Greedy(c, k) },
		"partition": func(c *im.RRCollection) im.GreedyResult { return im.GreedyPartition(c, k, group, 2) },
	}
	for name, algo := range algos {
		t.Run(name, func(t *testing.T) {
			lazy := collectionOf(numCands, stream)
			eager := collectionOf(numCands, stream)
			eager.Finalize()
			got, want := algo(lazy), algo(eager)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("lazy vs finalized differ:\n%+v\n%+v", got, want)
			}
			if got.Covered == 0 {
				t.Error("degenerate instance: nothing covered")
			}
			// Re-running on the already-indexed collection is also stable.
			if again := algo(lazy); !reflect.DeepEqual(again, got) {
				t.Errorf("re-run differs: %+v vs %+v", again, got)
			}
		})
	}
}

// TestIndexRebuildAfterAdd pins the staleness contract: selections and
// coverage queries interleaved with Add (the IMM pattern) must match a
// collection built from the full stream in one go.
func TestIndexRebuildAfterAdd(t *testing.T) {
	const numCands, numSets, k = 40, 300, 4
	stream := randomStream(numCands, numSets)
	grown := im.NewRRCollection(numCands)
	for i, s := range stream {
		grown.Add(s)
		if i%50 == 10 {
			im.Greedy(grown, k) // force an index build mid-stream
		}
	}
	fresh := collectionOf(numCands, stream)
	if got, want := im.Greedy(grown, k), im.Greedy(fresh, k); !reflect.DeepEqual(got, want) {
		t.Errorf("interleaved index rebuilds change selection:\n%+v\n%+v", got, want)
	}
	seeds := ids(0, 1, 2)
	if got, want := grown.CoverageOf(seeds), fresh.CoverageOf(seeds); got != want {
		t.Errorf("CoverageOf = %d, want %d", got, want)
	}
}

// TestCoverageOfMatchesNaive checks the indexed CoverageOf against a direct
// scan of the sets, including duplicate seeds.
func TestCoverageOfMatchesNaive(t *testing.T) {
	const numCands = 30
	stream := randomStream(numCands, 200)
	c := collectionOf(numCands, stream)
	naive := func(seeds []im.CandidateID) int {
		inSeed := make([]bool, numCands)
		for _, s := range seeds {
			inSeed[s] = true
		}
		covered := 0
		for _, set := range stream {
			for _, m := range set {
				if inSeed[m] {
					covered++
					break
				}
			}
		}
		return covered
	}
	rng := randv2.New(randv2.NewPCG(5, 9))
	for trial := 0; trial < 50; trial++ {
		seeds := make([]im.CandidateID, rng.IntN(6))
		for i := range seeds {
			seeds[i] = im.CandidateID(rng.IntN(numCands))
		}
		if got, want := c.CoverageOf(seeds), naive(seeds); got != want {
			t.Fatalf("CoverageOf(%v) = %d, want %d", seeds, got, want)
		}
	}
}

// TestCoverageOfZeroAlloc asserts the steady-state coverage query allocates
// nothing: the memberOf index is shared and the visitation marks are
// epoch-stamped scratch.
func TestCoverageOfZeroAlloc(t *testing.T) {
	const numCands = 50
	c := collectionOf(numCands, randomStream(numCands, 500))
	seeds := ids(0, 1, 2, 3, 7)
	c.CoverageOf(seeds) // warm-up: builds index and scratch
	if avg := testing.AllocsPerRun(100, func() {
		c.CoverageOf(seeds)
	}); avg != 0 {
		t.Errorf("CoverageOf allocates %.1f allocs/op in steady state, want 0", avg)
	}
}

// TestReserveAndArenaBytes checks the pre-sizing path: a reserved
// collection must not grow its arena during Add, and ArenaBytes reflects
// the reservation.
func TestReserveAndArenaBytes(t *testing.T) {
	stream := randomStream(20, 100)
	var total int64
	for _, s := range stream {
		total += int64(len(s))
	}
	c := im.NewRRCollection(20)
	c.Reserve(len(stream), total)
	reserved := c.ArenaBytes()
	if reserved < total*4 {
		t.Errorf("ArenaBytes = %d after Reserve(%d members)", reserved, total)
	}
	for _, s := range stream {
		c.Add(s)
	}
	if c.ArenaBytes() != reserved {
		t.Errorf("arena grew from %d to %d bytes despite Reserve", reserved, c.ArenaBytes())
	}
	if c.TotalMembers() != total || c.Len() != len(stream) {
		t.Errorf("TotalMembers=%d Len=%d, want %d/%d", c.TotalMembers(), c.Len(), total, len(stream))
	}
}
