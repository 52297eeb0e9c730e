package journal

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"contribmax/internal/obs"
)

// DefaultCapacity is the in-memory ring-buffer size when Options.Capacity
// is zero: enough to hold a full solve's worth of batched events for
// replay without unbounded growth on long runs.
const DefaultCapacity = 4096

// Options configures a Journal.
type Options struct {
	// Capacity bounds the in-memory ring buffer (DefaultCapacity if <= 0).
	// The sink, if any, still receives every event; only replay/Snapshot
	// forget the oldest entries past the cap.
	Capacity int
	// Sink, when non-nil, receives every event as one JSON line, in order,
	// under the journal lock (writes are serialized; wrap slow writers in
	// a bufio.Writer and flush on Close). Write errors are remembered and
	// reported by Close, not surfaced per-event.
	Sink io.Writer
	// Obs, when non-nil, surfaces the journal's two silent data-loss modes
	// as counters: journal.dropped (slow subscribers disconnected) and
	// journal.overwritten (ring-buffer entries evicted before replay).
	Obs *obs.Registry
}

// Journal is one run's event stream. All methods are safe for concurrent
// use and no-ops on a nil receiver.
type Journal struct {
	mu     sync.Mutex
	run    string
	start  time.Time
	seq    int64
	ring   []Event // capacity-bounded; logically ordered oldest..newest
	head   int     // index of the oldest element when full
	full   bool
	enc    *json.Encoder
	encErr error
	subs   map[int]*subscriber
	nextID int
	closed bool

	// dropped / overwritten are the pre-resolved loss counters (nil
	// handles no-op when Options.Obs was nil).
	dropped     *obs.Counter
	overwritten *obs.Counter
}

type subscriber struct {
	ch      chan Event
	dropped bool
}

// New opens a journal for the given run ID (NewRunID() if empty).
func New(runID string, opts Options) *Journal {
	if runID == "" {
		runID = NewRunID()
	}
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	j := &Journal{
		run:         runID,
		start:       time.Now(),
		ring:        make([]Event, 0, capacity),
		subs:        make(map[int]*subscriber),
		dropped:     opts.Obs.Counter(obs.JournalDropped),
		overwritten: opts.Obs.Counter(obs.JournalOverwritten),
	}
	if opts.Sink != nil {
		j.enc = json.NewEncoder(opts.Sink)
	}
	return j
}

// Run returns the journal's run ID ("" for nil).
func (j *Journal) Run() string {
	if j == nil {
		return ""
	}
	return j.run
}

// append stamps and records one event. The payload pointers in ev must not
// be mutated by the caller afterwards.
func (j *Journal) append(ev Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	j.seq++
	ev.Seq = j.seq
	ev.TNs = int64(time.Since(j.start))
	ev.Run = j.run
	if len(j.ring) < cap(j.ring) {
		j.ring = append(j.ring, ev)
	} else {
		j.ring[j.head] = ev
		j.head = (j.head + 1) % len(j.ring)
		j.full = true
		j.overwritten.Inc()
	}
	if j.enc != nil && j.encErr == nil {
		j.encErr = j.enc.Encode(ev)
	}
	for id, s := range j.subs {
		select {
		case s.ch <- ev:
		default:
			// A subscriber that cannot keep up is dropped rather than
			// allowed to block the solver: close its channel so the
			// consumer sees the stream end.
			s.dropped = true
			close(s.ch)
			delete(j.subs, id)
			j.dropped.Inc()
		}
	}
}

// Snapshot returns the buffered events, oldest first. The returned slice
// is a copy. Empty on a nil journal.
func (j *Journal) Snapshot() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

func (j *Journal) snapshotLocked() []Event {
	out := make([]Event, 0, len(j.ring))
	if j.full {
		out = append(out, j.ring[j.head:]...)
		out = append(out, j.ring[:j.head]...)
	} else {
		out = append(out, j.ring...)
	}
	return out
}

// Len reports the number of buffered events (0 for nil).
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.ring)
}

// Subscribe registers a live listener: it atomically returns the buffered
// history (replay, oldest first) and a channel that receives every event
// appended after it, with no gap between the two. The channel is closed
// when the journal closes or the subscriber falls more than buffer events
// behind (slow consumers are dropped, never allowed to block emitters).
// cancel unregisters; it is idempotent and safe after close. A nil
// journal returns (nil, closedChannel, no-op).
func (j *Journal) Subscribe(buffer int) (replay []Event, ch <-chan Event, cancel func()) {
	if buffer <= 0 {
		buffer = 64
	}
	if j == nil {
		c := make(chan Event)
		close(c)
		return nil, c, func() {}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = j.snapshotLocked()
	c := make(chan Event, buffer)
	if j.closed {
		close(c)
		return replay, c, func() {}
	}
	id := j.nextID
	j.nextID++
	sub := &subscriber{ch: c}
	j.subs[id] = sub
	cancel = func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(c)
		}
	}
	return replay, c, cancel
}

// Close seals the journal: subscriber channels are closed, further emits
// are dropped, and any sink write error is returned. Idempotent; nil-safe.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return j.encErr
	}
	j.closed = true
	for id, s := range j.subs {
		close(s.ch)
		delete(j.subs, id)
	}
	return j.encErr
}

// SolveStart emits a solve.start event.
func (j *Journal) SolveStart(info SolveInfo) {
	if j == nil {
		return
	}
	j.append(Event{Type: TypeSolveStart, Solve: &info})
}

// SolveFinish emits a solve.finish event.
func (j *Journal) SolveFinish(info FinishInfo) {
	if j == nil {
		return
	}
	j.append(Event{Type: TypeSolveFinish, Finish: &info})
}

// EngineRound emits an engine.round event.
func (j *Journal) EngineRound(round, delta int) {
	if j == nil {
		return
	}
	j.append(Event{Type: TypeEngineRound, Round: &RoundInfo{Round: round, Delta: delta}})
}

// GraphBuild emits a graph.build event.
func (j *Journal) GraphBuild(nodes, edges int, d time.Duration) {
	if j == nil {
		return
	}
	j.append(Event{Type: TypeGraphBuild, Build: &BuildInfo{Nodes: nodes, Edges: edges, DurationNs: int64(d)}})
}

// RRBatch emits an rr.batch event.
func (j *Journal) RRBatch(info RRBatchInfo) {
	if j == nil {
		return
	}
	j.append(Event{Type: TypeRRBatch, RR: &info})
}

// IMMRound emits an imm.round event.
func (j *Journal) IMMRound(info IMMInfo) {
	if j == nil {
		return
	}
	j.append(Event{Type: TypeIMMRound, IMM: &info})
}

// PlanSummary emits a plan.summary event.
func (j *Journal) PlanSummary(info PlanInfo) {
	if j == nil {
		return
	}
	j.append(Event{Type: TypePlanSummary, Plan: &info})
}

// CacheSummary emits a cache.summary event.
func (j *Journal) CacheSummary(info CacheInfo) {
	if j == nil {
		return
	}
	j.append(Event{Type: TypeCacheSummary, Cache: &info})
}

// EstimatorSummary emits an estimator.summary event.
func (j *Journal) EstimatorSummary(info EstInfo) {
	if j == nil {
		return
	}
	j.append(Event{Type: TypeEstimatorSummary, Est: &info})
}

// ProfileSummary emits a profile.summary event.
func (j *Journal) ProfileSummary(info ProfileInfo) {
	if j == nil {
		return
	}
	j.append(Event{Type: TypeProfileSummary, Profile: &info})
}

// RRRoute emits an rr.route event.
func (j *Journal) RRRoute(info RouteInfo) {
	if j == nil {
		return
	}
	j.append(Event{Type: TypeRRRoute, Route: &info})
}

// SelectIter emits a select.iter event.
func (j *Journal) SelectIter(info IterInfo) {
	if j == nil {
		return
	}
	j.append(Event{Type: TypeSelectIter, Iter: &info})
}
