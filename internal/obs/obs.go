// Package obs is the lightweight observability layer of the CM pipeline:
// process-wide metric registries (counters, gauges, exponential-bucket
// histograms, all with lock-free hot paths) and span-style phase timers
// (see span.go) that the engine, the WD-graph builder, the RR machinery,
// the CM solvers, and the HTTP server report into.
//
// Everything is nil-safe by design: a nil *Registry hands out nil metric
// handles, and every operation on a nil handle is a no-op, so instrumented
// code pays a single pointer check when observability is disabled and
// needs no conditional plumbing. All mutating operations on non-nil
// handles are atomic and safe for concurrent use.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can move both ways (e.g. in-flight requests).
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by n (negative to decrease). No-op on a nil gauge.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of exponential histogram buckets: bucket 0
// holds values <= 0, bucket i holds values in [2^(i-1), 2^i). 63 buckets
// cover the full non-negative int64 range (nanosecond durations up to
// ~292 years), so no observation is ever dropped.
const histBuckets = 64

// Histogram records an int64 value distribution in power-of-two buckets,
// plus exact count/sum/min/max. Observation is a few atomic adds — cheap
// enough for per-RR-set hot paths.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid iff count > 0
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveSince records the elapsed nanoseconds since start. No-op on a nil
// histogram (time.Since is still evaluated; callers on ultra-hot paths
// should early-out on the handle themselves).
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(int64(time.Since(start)))
}

// HistogramSnapshot is a single-pass view of a histogram. Count is derived
// from one read of the bucket array (so Count == sum(Buckets) always holds,
// and quantile ranks computed from Buckets are internally consistent even
// while writers race); Sum/Min/Max/Avg are read alongside and may run a
// few observations ahead or behind the buckets — an accepted, documented
// tear for lock-free observation.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Avg   float64 `json:"avg"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`

	// Buckets is the raw power-of-two bucket array (index 0: v <= 0,
	// index i: v in [2^(i-1), 2^i)), for cumulative-bucket consumers like
	// the Prometheus exposition. Excluded from the flat JSON surface.
	Buckets []int64 `json:"-"`
}

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket array
// using the geometric midpoint of the winning bucket, accurate to about a
// factor of sqrt(2). The estimate is clamped to the observed Max so a
// sparse top bucket cannot report a value beyond anything observed.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	seen := int64(0)
	for i, n := range s.Buckets {
		seen += n
		if seen >= rank {
			if i == 0 {
				return 0
			}
			// Geometric midpoint of [2^(i-1), 2^i).
			mid := math.Sqrt2 * math.Exp2(float64(i-1))
			if s.Max > 0 && mid > float64(s.Max) {
				return float64(s.Max)
			}
			return mid
		}
	}
	return float64(s.Max)
}

// Snapshot summarizes the histogram in one pass over the bucket array;
// see HistogramSnapshot for the consistency contract. Zero for nil.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var s HistogramSnapshot
	counts := make([]int64, histBuckets)
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		s.Count += counts[i]
	}
	if s.Count == 0 {
		return s
	}
	s.Buckets = counts
	s.Sum = h.sum.Load()
	s.Min = h.min.Load()
	s.Max = h.max.Load()
	if s.Min == math.MaxInt64 {
		// A writer has bumped its bucket but not yet CASed min; report
		// the other extreme rather than the sentinel.
		s.Min = s.Max
	}
	s.Avg = float64(s.Sum) / float64(s.Count)
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
	return s
}

// Registry is a named collection of metrics. The zero value is not usable;
// construct with NewRegistry. A nil *Registry is the disabled registry:
// metric lookups return nil handles and every operation no-ops.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	start    time.Time
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		start:    time.Now(),
	}
}

// Counter returns the named counter, creating it on first use. Nil on a
// nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. Nil on
// a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		h.min.Store(math.MaxInt64)
		r.hists[name] = h
	}
	return h
}

// UpdateGoRuntime refreshes the Go runtime gauges — go.goroutines,
// go.heap_bytes, go.gc_pauses — from the live runtime. Metric endpoints
// call it right before rendering a snapshot so every scrape sees current
// values; ReadMemStats costs a brief stop-the-world, so it belongs on the
// scrape path, not in solver hot loops. No-op on a nil registry.
func (r *Registry) UpdateGoRuntime() {
	if r == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.Gauge(GoGoroutines).Set(int64(runtime.NumGoroutine()))
	r.Gauge(GoHeapBytes).Set(int64(ms.HeapAlloc))
	r.Gauge(GoGCPauses).Set(int64(ms.PauseTotalNs))
}

// Snapshot captures every metric's current value.
type Snapshot struct {
	UptimeSeconds float64                      `json:"uptime_seconds"`
	Counters      map[string]int64             `json:"counters"`
	Gauges        map[string]int64             `json:"gauges"`
	Histograms    map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot reads all metrics in a single pass: the metric set is captured
// under the registry read-lock (so a concurrent first-use registration
// cannot tear the map iteration), then each metric is read lock-free.
// Within one histogram, Count == sum(Buckets) is guaranteed (see
// HistogramSnapshot); across metrics the snapshot is a point-in-time-ish
// view — writers may land between reads, which is inherent to lock-free
// observation and fine for monitoring. Empty on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	s.UptimeSeconds = time.Since(r.start).Seconds()
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	r.mu.RUnlock()
	for name, c := range counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteJSON emits an expvar-style flat JSON object: each counter and gauge
// as "name": value, each histogram as "name": {count, sum, avg, ...}, plus
// "uptime_seconds". Keys are sorted, so the output is deterministic for a
// fixed metric state.
func (r *Registry) WriteJSON(w io.Writer) error {
	s := r.Snapshot()
	flat := map[string]any{"uptime_seconds": s.UptimeSeconds}
	for name, v := range s.Counters {
		flat[name] = v
	}
	for name, v := range s.Gauges {
		flat[name] = v
	}
	for name, v := range s.Histograms {
		flat[name] = v
	}
	keys := make([]string, 0, len(flat))
	for k := range flat {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, k := range keys {
		if i > 0 {
			if _, err := io.WriteString(w, ",\n "); err != nil {
				return err
			}
		}
		kb, _ := json.Marshal(k)
		vb, err := json.Marshal(flat[k])
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s: %s", kb, vb); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}

// WriteText renders the metrics as sorted human-readable lines — the
// cmrun -stats format.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	type line struct{ name, text string }
	var lines []line
	for name, v := range s.Counters {
		lines = append(lines, line{name, fmt.Sprintf("%s = %d", name, v)})
	}
	for name, v := range s.Gauges {
		lines = append(lines, line{name, fmt.Sprintf("%s = %d", name, v)})
	}
	for name, h := range s.Histograms {
		lines = append(lines, line{name, fmt.Sprintf(
			"%s: count=%d avg=%.1f min=%d max=%d p50=%.0f p90=%.0f p99=%.0f",
			name, h.Count, h.Avg, h.Min, h.Max, h.P50, h.P90, h.P99)})
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].name < lines[j].name })
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l.text); err != nil {
			return err
		}
	}
	return nil
}
