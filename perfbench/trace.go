package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program. Spans of one
// operation share Op; Parent is the ID of the enclosing span (0 for a
// root).
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Op     int       `json:"op"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pay one nil check per call site. Safe for
// concurrent use.
type tracer struct {
	mu    sync.Mutex
	spans []span
	// cost is the time spent inside the tracer's own bookkeeping, the
	// direct part of the tracing overhead.
	cost time.Duration
}

// region is an open span; end closes it.
type region struct {
	t  *tracer
	id int
}

// begin opens a span named name under parent (0 for a root) for
// operation op.
func (t *tracer) begin(op, parent int, name string) region {
	if t == nil {
		return region{}
	}
	t0 := time.Now()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t0})
	t.cost += time.Since(t0)
	t.mu.Unlock()
	return region{t: t, id: id}
}

// end closes the span and returns its duration.
func (r region) end() time.Duration {
	if r.t == nil {
		return 0
	}
	now := time.Now()
	r.t.mu.Lock()
	s := &r.t.spans[r.id-1]
	s.End = now
	d := s.dur()
	r.t.cost += time.Since(now)
	r.t.mu.Unlock()
	return d
}

// record adds a span that was timed by the caller.
func (t *tracer) record(op, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t0 := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	t.cost += time.Since(t0)
	return id
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span name, the summed self time of its spans: a
// span's duration minus the part of its interval that its children cover.
// Children that overlap each other (parallel work) are counted once.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(parent.End) {
			hi = parent.End
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo.After(cur.hi):
			total += cur.hi.Sub(cur.lo)
			cur = v
		case v.hi.After(cur.hi):
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += cur.hi.Sub(cur.lo)
	}
	return total
}

// totalTimes returns, per span name, the summed span durations.
func totalTimes(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur()
	}
	return out
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
