package experiments

import (
	"fmt"
	"math/rand/v2"
	"time"

	"contribmax/internal/cm"
	"contribmax/internal/im"
	"contribmax/internal/solvecache"
)

// CacheSummary is one dataset's cached-resolve A/B: the same Magic^S solve
// run cold (empty cache, paying graph construction and RR generation) and
// warm (replaying the memoized RR collection, paying selection only). The
// warm run must be byte-identical to the cold one — the cache trades
// memory for time, never accuracy — so a divergence or a warm run that
// missed the cache is an error, not a slow data point.
type CacheSummary struct {
	Dataset    string  `json:"dataset"`
	ColdMillis float64 `json:"cold_millis"`
	WarmMillis float64 `json:"warm_millis"`
	// Speedup is ColdMillis / WarmMillis — the headline factor.
	Speedup     float64 `json:"speedup"`
	RRHits      int64   `json:"rr_hits"`
	GraphHits   int64   `json:"graph_hits"`
	BytesReused int64   `json:"bytes_reused"`
}

// CacheSummaries runs the cached-resolve A/B over every dataset: one cold
// Magic^S solve on the largest quick-scale instance against an empty
// cache, then the identical request re-resolved warm (best of 3). Every
// solve draws a fresh PCG(17, 19) generator and asserts that identity to
// the cache — the contract that makes the RR multiset reusable.
func CacheSummaries() ([]CacheSummary, error) {
	out := make([]CacheSummary, 0, len(Datasets))
	for _, ds := range Datasets {
		sizes := sizesFor(ds, Quick)
		size := sizes[len(sizes)-1]
		w, err := buildWorkload(ds, size, rand.New(rand.NewPCG(3, 5)))
		if err != nil {
			return nil, err
		}
		_, outputs, err := evalOutputs(w)
		if err != nil {
			return nil, err
		}
		targets := sampleTargets(outputs, targetCount(Quick), rand.New(rand.NewPCG(11, 13)))
		if len(targets) == 0 {
			return nil, fmt.Errorf("dataset %s derived no targets at size %d", ds, size)
		}
		s, err := cacheMeasure(string(ds), cm.Input{Program: w.Program, DB: w.DB, T2: targets, K: 5})
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// cacheMeasure times one cold and one warm resolve of the same request.
// The warm time is the best of 3 repeats; the cold solve is not repeated
// (repeating it would need a fresh cache each time, and the first
// measurement is exactly the cost a real first request pays).
func cacheMeasure(name string, in cm.Input) (CacheSummary, error) {
	c := solvecache.New(0)
	id := solvecache.Identity{
		Database: in.DB.Fingerprint(),
		Program:  solvecache.HashText(in.Program.String()),
		Rand:     "pcg:17:19",
	}
	run := func() (*cm.Result, error) {
		return cm.MagicSampledCM(in, cm.Options{
			Theta:   im.ThetaSpec{Explicit: 400},
			Rand:    rand.New(rand.NewPCG(17, 19)),
			Cache:   c,
			CacheID: id,
		})
	}
	cold, err := run()
	if err != nil {
		return CacheSummary{}, fmt.Errorf("dataset %s (cold): %w", name, err)
	}
	if cold.Stats.CacheRRMisses != 1 {
		return CacheSummary{}, fmt.Errorf("dataset %s: cold solve reports %d rr misses, want 1",
			name, cold.Stats.CacheRRMisses)
	}
	var warm *cm.Result
	for rep := 0; rep < 3; rep++ {
		r, err := run()
		if err != nil {
			return CacheSummary{}, fmt.Errorf("dataset %s (warm): %w", name, err)
		}
		if r.Stats.CacheRRHits == 0 {
			return CacheSummary{}, fmt.Errorf("dataset %s: warm solve missed the cache", name)
		}
		if warm == nil || r.Stats.TotalTime < warm.Stats.TotalTime {
			warm = r
		}
	}
	if got, want := solveKey(warm), solveKey(cold); got != want {
		return CacheSummary{}, fmt.Errorf("dataset %s: cached result diverged:\n  warm %s\n  cold %s",
			name, got, want)
	}
	s := CacheSummary{
		Dataset:     name,
		ColdMillis:  millis(cold.Stats.TotalTime),
		WarmMillis:  millis(warm.Stats.TotalTime),
		RRHits:      warm.Stats.CacheRRHits,
		GraphHits:   warm.Stats.CacheGraphHits,
		BytesReused: warm.Stats.CacheBytesReused,
	}
	if s.WarmMillis > 0 {
		s.Speedup = s.ColdMillis / s.WarmMillis
	}
	return s, nil
}

// solveKey fingerprints the deterministic content of a result — the same
// fields the cm golden battery pins.
func solveKey(r *cm.Result) string {
	return fmt.Sprintf("seeds=%v gains=%v est=%.9f rr=%d covered=%d",
		r.Seeds, r.SeedGains, r.EstContribution, r.Stats.NumRR, r.Stats.CoveredRR)
}

// CacheTable renders summaries as a printable cmbench table.
func CacheTable(summaries []CacheSummary) *Table {
	t := &Table{
		Title:  "Solve cache A/B (Magic^S, quick scale; cold build vs warm replay)",
		XLabel: "dataset",
		YLabel: "ms (and speedup factor)",
		Series: []string{"cold", "warm", "speedup", "mb reused"},
	}
	for _, s := range summaries {
		t.AddRow(s.Dataset, s.ColdMillis, s.WarmMillis, s.Speedup,
			float64(s.BytesReused)/(1<<20))
	}
	return t
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
