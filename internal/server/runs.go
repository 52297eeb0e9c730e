package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"contribmax/internal/obs"
	"contribmax/internal/obs/journal"
)

// defaultMaxRuns bounds the run store when Config.MaxRuns is zero. When
// full, the least-recently-accessed finished run is evicted to make room;
// if every run is still in flight the start request is refused (503)
// rather than growing without bound.
const defaultMaxRuns = 128

// run is one journaled asynchronous solve tracked by the server.
type run struct {
	id      string
	journal *journal.Journal
	started time.Time

	mu       sync.Mutex
	finished time.Time
	resp     *SolveResponse
	err      error
	done     chan struct{} // closed when the solve returns
}

// state reports the run's lifecycle phase: running, done, or error.
func (r *run) state() string {
	select {
	case <-r.done:
	default:
		return "running"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return "error"
	}
	return "done"
}

// runStore is the server's bounded registry of asynchronous runs,
// evicted in least-recently-accessed order: a run whose status, events,
// or journal a client still polls stays resident over one nobody reads.
type runStore struct {
	mu   sync.Mutex
	max  int
	runs map[string]*run
	// order holds run IDs least-recently-accessed first for eviction.
	order   []string
	evicted *obs.Counter
}

func newRunStore(max int, reg *obs.Registry) *runStore {
	if max <= 0 {
		max = defaultMaxRuns
	}
	return &runStore{
		max:     max,
		runs:    make(map[string]*run),
		evicted: reg.Counter(obs.ServerRunsEvicted),
	}
}

// add registers a new run, evicting the least-recently-accessed finished
// run when full. In-flight runs are never evicted — their journals are
// live and their goroutines still report into them; when the store is
// full of in-flight runs the start request is refused instead.
func (st *runStore) add(r *run) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.runs) >= st.max {
		evicted := false
		for i, id := range st.order {
			old := st.runs[id]
			select {
			case <-old.done:
				delete(st.runs, id)
				st.order = append(st.order[:i], st.order[i+1:]...)
				st.evicted.Inc()
				evicted = true
			default:
				continue
			}
			break
		}
		if !evicted {
			return fmt.Errorf("run store full: %d solves in flight", len(st.runs))
		}
	}
	st.runs[r.id] = r
	st.order = append(st.order, r.id)
	return nil
}

func (st *runStore) get(id string) (*run, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	r, ok := st.runs[id]
	if ok {
		st.touch(id)
	}
	return r, ok
}

// touch moves id to the most-recently-accessed end. Callers hold st.mu.
func (st *runStore) touch(id string) {
	for i, v := range st.order {
		if v == id {
			st.order = append(st.order[:i], st.order[i+1:]...)
			st.order = append(st.order, id)
			return
		}
	}
}

// startResponse is the JSON shape of POST /api/solve/start.
type startResponse struct {
	Run string `json:"run"`
	// Events and Journal are the relative URLs of the live SSE stream and
	// the JSONL replay for this run.
	Events  string `json:"events"`
	Journal string `json:"journal"`
	Status  string `json:"status"`
}

// statusResponse is the JSON shape of GET /api/solve/{id}.
type statusResponse struct {
	Run           string         `json:"run"`
	State         string         `json:"state"` // running | done | error
	ElapsedMillis float64        `json:"elapsedMillis"`
	Response      *SolveResponse `json:"response,omitempty"`
	Error         string         `json:"error,omitempty"`
}

// handleSolveStart launches a journaled solve in the background and
// returns 202 with the run ID immediately. The solve runs under its own
// context (the start request's lifetime is irrelevant to it), bounded by
// the configured SolveTimeout.
func (s *server) handleSolveStart(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	p, err := s.preflight(req)
	if err != nil {
		writeSolveError(w, err)
		return
	}
	id := journal.NewRunID()
	ru := &run{
		id: id,
		// The registry hookup surfaces the journal's data-loss modes
		// (journal.dropped / journal.overwritten) on /metrics.
		journal: journal.New(id, journal.Options{Obs: s.cfg.Obs}),
		started: time.Now(),
		done:    make(chan struct{}),
	}
	if err := s.runs.add(ru); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	tenant := tenantOf(r.Header)
	go func() {
		// Detached from the request context: the start call has already
		// returned by the time the solve makes progress.
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if s.cfg.SolveTimeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, s.cfg.SolveTimeout)
		}
		defer cancel()
		// Async runs go through the same solve pool as synchronous ones —
		// the 202 means accepted, not scheduled. A shed surfaces as the
		// run's error.
		var resp *SolveResponse
		release, err := s.pool.acquire(ctx, tenant)
		if err == nil {
			resp, err = s.solveParsed(ctx, p, req, ru.journal)
			release()
		}
		ru.mu.Lock()
		ru.resp, ru.err = resp, err
		ru.finished = time.Now()
		ru.mu.Unlock()
		close(ru.done)
		// Closing the journal ends every live SSE stream of this run.
		ru.journal.Close()
	}()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(startResponse{
		Run:     id,
		Events:  "/solve/" + id + "/events",
		Journal: "/journal/" + id,
		Status:  "/api/solve/" + id,
	})
}

// handleSolveStatus reports an asynchronous run's state and, once done,
// its result.
func (s *server) handleSolveStatus(w http.ResponseWriter, r *http.Request) {
	ru, ok := s.runs.get(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown run", http.StatusNotFound)
		return
	}
	out := statusResponse{Run: ru.id, State: ru.state()}
	ru.mu.Lock()
	if out.State == "running" {
		out.ElapsedMillis = float64(time.Since(ru.started)) / float64(time.Millisecond)
	} else {
		out.ElapsedMillis = float64(ru.finished.Sub(ru.started)) / float64(time.Millisecond)
		out.Response = ru.resp
		if ru.err != nil {
			out.Error = ru.err.Error()
		}
	}
	ru.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleSolveProfile serves a finished run's runtime profile as the full
// JSON artifact (schema contribmax/profile/v1). 404 for unknown runs and
// for runs started without SolveRequest.Profile; 409 while still running.
func (s *server) handleSolveProfile(w http.ResponseWriter, r *http.Request) {
	ru, ok := s.runs.get(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown run", http.StatusNotFound)
		return
	}
	if ru.state() == "running" {
		http.Error(w, "run still in progress", http.StatusConflict)
		return
	}
	ru.mu.Lock()
	resp := ru.resp
	ru.mu.Unlock()
	if resp == nil || resp.Profile == nil {
		http.Error(w, "run was not profiled (set \"profile\": true on start)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	resp.Profile.WriteJSON(w)
}

// handleEvents streams a run's journal as Server-Sent Events: the buffered
// history first, then live events as the solve emits them. The stream ends
// when the solve finishes (the journal closes) or the client disconnects;
// a consumer that cannot keep up is dropped rather than allowed to slow
// the solver.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	ru, ok := s.runs.get(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown run", http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	replay, live, cancel := ru.journal.Subscribe(256)
	defer cancel()
	writeEvent := func(ev journal.Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
			return false
		}
		return true
	}
	for _, ev := range replay {
		if !writeEvent(ev) {
			return
		}
	}
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-live:
			if !open {
				// Solve finished (or this consumer fell behind): end the
				// stream with a terminal comment so clients can tell a
				// completed stream from a dropped connection.
				fmt.Fprintf(w, ": stream closed state=%s\n\n", ru.state())
				fl.Flush()
				return
			}
			if !writeEvent(ev) {
				return
			}
			fl.Flush()
		}
	}
}

// handleJournal replays a run's buffered journal as JSONL — the same
// format cmrun -journal writes to disk, consumable by cmd/cmjournal.
func (s *server) handleJournal(w http.ResponseWriter, r *http.Request) {
	ru, ok := s.runs.get(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown run", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, ev := range ru.journal.Snapshot() {
		if err := enc.Encode(ev); err != nil {
			return
		}
	}
}
