package planner

import (
	"sync"

	"contribmax/internal/obs"
)

// maxCacheEntries bounds the plan cache. Rule-shape cardinality is tiny in
// practice — a Magic^S transform of a realistic program yields tens of
// adorned rule families, not thousands — so the cap is a safety valve, not
// a working-set tuner. At the cap the cache stops admitting (no eviction):
// plans are cheap to rebuild and deterministic admission keeps hit/miss
// counts reproducible.
const maxCacheEntries = 4096

// Planner is a concurrency-safe plan cache keyed by canonical rule shape
// (see Key). One Planner typically spans a whole solve: the Magic variants
// compile a fresh engine per target grounding or gated RR set (and per
// gated Monte-Carlo sample), and every compilation after the first hits
// the cache for each rule family.
//
// All methods are nil-safe: a nil *Planner plans without caching, so callers
// thread an optional planner with no conditionals.
type Planner struct {
	mu    sync.Mutex
	plans map[string]*Plan

	built     int64
	hits      int64
	reordered int64

	cBuilt     *obs.Counter
	cHits      *obs.Counter
	cReordered *obs.Counter
}

// CacheStats is a snapshot of the planner's lifetime counters.
type CacheStats struct {
	Built     int64 // plans computed (cache misses + uncacheable overflow)
	Hits      int64 // plans served from cache
	Reordered int64 // plan positions deviating from written order, summed over built plans
	Entries   int   // resident cache entries
}

// New returns an empty Planner reporting into reg (nil for no metrics).
func New(reg *obs.Registry) *Planner {
	return &Planner{
		plans:      make(map[string]*Plan),
		cBuilt:     reg.Counter(obs.PlanBuilt),
		cHits:      reg.Counter(obs.PlanCacheHits),
		cReordered: reg.Counter(obs.PlanReordered),
	}
}

// PlanRule returns the plan for r, computing and caching it on first sight
// of r's shape. The returned Plan is shared and must not be mutated. Plans
// are built under the cache lock so that concurrent callers racing on the
// same fresh shape count exactly one build — hit/miss totals are a pure
// function of the request sequence's shape multiset, independent of
// scheduling.
func (p *Planner) PlanRule(r *Rule) *Plan {
	if p == nil {
		return Build(r)
	}
	key := Key(r)
	p.mu.Lock()
	defer p.mu.Unlock()
	if pl, ok := p.plans[key]; ok {
		p.hits++
		p.cHits.Inc()
		return pl
	}
	pl := Build(r)
	p.built++
	p.reordered += int64(pl.Reordered)
	p.cBuilt.Inc()
	p.cReordered.Add(int64(pl.Reordered))
	if len(p.plans) < maxCacheEntries {
		p.plans[key] = pl
	}
	return pl
}

// Stats returns a snapshot of the planner's counters (zero for nil).
func (p *Planner) Stats() CacheStats {
	if p == nil {
		return CacheStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return CacheStats{
		Built:     p.built,
		Hits:      p.hits,
		Reordered: p.reordered,
		Entries:   len(p.plans),
	}
}
