// Package solvecache memoizes the two expensive phases of a CM solve
// behind content-fingerprint keys: built WD graphs, keyed by (database
// identity, program identity, build configuration), and finalized RR
// collections, keyed additionally by (target set, RR parameters, random
// stream). Both stores live in one size-bounded LRU with single-flight
// deduplication, so concurrent identical requests share one computation
// and a warm repeat of a solve costs only the selection phase.
//
// Correctness rests on three invariants the rest of the pipeline already
// provides:
//
//   - wdgraph.Graph is immutable after building and safe for concurrent
//     reads, so one cached graph can back any number of solves.
//   - im.RRCollection is read-only once finalized as long as only the
//     selection/coverage queries run (they allocate their own scratch);
//     cached collections are handed out as Snapshot views with private
//     coverage scratch, so even CoverageOf cannot alias across solves.
//   - RR generation is a deterministic function of (graph content, target
//     order, resolved θ, random stream, parallelism class), which is
//     exactly what RRKey captures — a hit replays the byte-identical
//     collection the miss would have generated.
//
// Keys are caller-asserted content identities (see Identity); the helpers
// in key.go derive them from database/program content when the caller has
// nothing cheaper. Errors are never cached.
package solvecache

import (
	"container/list"
	"context"
	"sync"

	"contribmax/internal/im"
	"contribmax/internal/obs"
	"contribmax/internal/wdgraph"
)

// Source reports where a cache lookup's value came from.
type Source int

const (
	// Miss: the caller's build function ran and its value was stored.
	Miss Source = iota
	// Hit: the value was already resident.
	Hit
	// Shared: another goroutine was computing the same key; this caller
	// waited and shares the leader's freshly built value (single-flight).
	Shared
)

// GraphEntry is one cached WD graph.
type GraphEntry struct {
	// Graph is immutable after building and safe for concurrent reads.
	Graph *wdgraph.Graph
}

// sizeBytes estimates the entry's resident size: the CSR arrays plus a
// per-node overhead for the node table and fact-id index.
func (e *GraphEntry) sizeBytes() int64 {
	const perNode = 64
	return e.Graph.MemoryBytes() + int64(e.Graph.NumNodes())*perNode
}

// RRStats is the generation-phase accounting frozen into an RR entry, so a
// cache hit can report the same cost statistics the original generation
// did (times excluded — a hit's build time is honestly ~0).
type RRStats struct {
	GraphBuilds        int
	TotalNodes         int64
	TotalEdges         int64
	MaxNodes           int
	MaxEdges           int
	PeakResidentSize   int
	Groundings         int
	GroundAborts       int
	AdaptiveLowerBound float64
	AdaptiveCapped     bool
}

// RREntry is one cached, finalized RR collection plus the stats of the
// generation run that produced it.
type RREntry struct {
	// Coll is finalized and must be treated as immutable; consumers take
	// Snapshot views rather than using it directly.
	Coll *im.RRCollection
	Gen  RRStats
}

func (e *RREntry) sizeBytes() int64 { return e.Coll.MemoryBytes() }

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	GraphHits     int64
	GraphMisses   int64
	RRHits        int64
	RRMisses      int64
	Evictions     int64
	Rejected      int64 // admissions refused (entry larger than the admission bound)
	SharedFlights int64 // lookups that waited on another goroutine's computation
	Bytes         int64 // resident bytes over both stores
	Entries       int
}

// Cache is the multi-tenant solve cache: one byte-bounded LRU over graph
// and RR entries with per-key single-flight. Safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	lru      *list.List               // front = most recently used
	entries  map[string]*list.Element // -> *entry
	inflight map[string]*flight
	stats    Stats
	reg      *obs.Registry
}

type entry struct {
	key   string
	bytes int64
	val   any // *GraphEntry or *RREntry
}

type flight struct {
	done chan struct{}
	val  any
	err  error
}

// New returns a cache bounded to maxBytes of resident entries (<= 0 means
// 256 MiB). Entries larger than maxBytes/4 are not admitted (they would
// evict most of the working set for one query); the computed value is
// still returned to the caller.
func New(maxBytes int64) *Cache { return NewWith(maxBytes, nil) }

// DefaultMaxBytes is the cache bound when New is given no explicit size.
const DefaultMaxBytes = 256 << 20

// NewWith is New with a metrics registry: the cache keeps the cache.*
// gauges and counters (bytes, entries, evictions, rejected, single-flight
// shares) current as it mutates. Per-solve hit/miss counters are emitted
// by the cm layer against the solve's own registry.
func NewWith(maxBytes int64, reg *obs.Registry) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		maxBytes: maxBytes,
		lru:      list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*flight),
		reg:      reg,
	}
}

// MaxBytes reports the configured size bound.
func (c *Cache) MaxBytes() int64 {
	if c == nil {
		return 0
	}
	return c.maxBytes
}

// Stats returns a snapshot of the counters. Zero value on nil.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Bytes = c.bytes
	s.Entries = c.lru.Len()
	return s
}

// Graph looks up (or builds, stores, and returns) the WD graph for key.
// Concurrent callers with the same key share one build. ctx cancels a
// waiting follower (the leader's build keeps running and is still cached).
func (c *Cache) Graph(ctx context.Context, key GraphKey, build func() (*GraphEntry, error)) (*GraphEntry, Source, error) {
	v, src, err := c.do(ctx, key.id(), func() (any, int64, error) {
		e, err := build()
		if err != nil {
			return nil, 0, err
		}
		return e, e.sizeBytes(), nil
	})
	c.count(src, &c.stats.GraphHits, &c.stats.GraphMisses)
	if err != nil {
		return nil, src, err
	}
	return v.(*GraphEntry), src, nil
}

// RR looks up (or builds, stores, and returns) the finalized RR collection
// for key, with the same single-flight semantics as Graph.
func (c *Cache) RR(ctx context.Context, key RRKey, build func() (*RREntry, error)) (*RREntry, Source, error) {
	v, src, err := c.do(ctx, key.id(), func() (any, int64, error) {
		e, err := build()
		if err != nil {
			return nil, 0, err
		}
		return e, e.sizeBytes(), nil
	})
	c.count(src, &c.stats.RRHits, &c.stats.RRMisses)
	if err != nil {
		return nil, src, err
	}
	return v.(*RREntry), src, nil
}

// count records a lookup outcome under the lock (Shared counts as a hit:
// the computation was not repeated).
func (c *Cache) count(src Source, hits, misses *int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch src {
	case Miss:
		*misses++
	default:
		*hits++
	}
	if src == Shared {
		c.stats.SharedFlights++
		if c.reg != nil {
			c.reg.Counter(obs.CacheSingleFlight).Inc()
		}
	}
}

// do is the shared lookup: resident entry, in-flight follower, or leader.
func (c *Cache) do(ctx context.Context, key string, build func() (any, int64, error)) (any, Source, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*entry)
		c.mu.Unlock()
		return e.val, Hit, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.val, Shared, f.err
		case <-ctx.Done():
			return nil, Shared, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	val, size, err := build()
	c.mu.Lock()
	delete(c.inflight, key)
	if err == nil {
		c.admitLocked(key, val, size)
	}
	c.mu.Unlock()
	f.val, f.err = val, err
	close(f.done)
	if err != nil {
		return nil, Miss, err
	}
	return val, Miss, nil
}

// admitLocked stores one built value, applying admission control and LRU
// eviction. An entry larger than a quarter of the bound is rejected: one
// oversized query must not flush the whole working set.
func (c *Cache) admitLocked(key string, val any, size int64) {
	if size > c.maxBytes/4 {
		c.stats.Rejected++
		if c.reg != nil {
			c.reg.Counter(obs.CacheRejected).Inc()
		}
		return
	}
	if el, ok := c.entries[key]; ok {
		// A concurrent leader for the same key can only have stored an
		// identical value; keep the resident one.
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&entry{key: key, bytes: size, val: val})
	c.bytes += size
	for c.bytes > c.maxBytes {
		back := c.lru.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*entry)
		c.lru.Remove(back)
		delete(c.entries, ev.key)
		c.bytes -= ev.bytes
		c.stats.Evictions++
		if c.reg != nil {
			c.reg.Counter(obs.CacheEvictions).Inc()
		}
	}
	if c.reg != nil {
		c.reg.Gauge(obs.CacheBytes).Set(c.bytes)
		c.reg.Gauge(obs.CacheEntries).Set(int64(c.lru.Len()))
	}
}
