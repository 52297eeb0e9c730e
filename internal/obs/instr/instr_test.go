package instr_test

import (
	"testing"
	"time"

	"contribmax/internal/obs"
	"contribmax/internal/obs/instr"
	"contribmax/internal/obs/journal"
	"contribmax/internal/prof"
)

// TestNilInstrIsFree pins the disabled instrument: with all four sinks
// nil the handle is nil, and every method on it — accessors, the engine,
// graph-build and IMM records, and the per-worker RR recorder it hands out
// — allocates nothing.
func TestNilInstrIsFree(t *testing.T) {
	h := instr.New(nil, nil, nil, nil)
	if h != nil {
		t.Fatal("New with no sinks returned a non-nil instrument")
	}
	busy := []time.Duration{time.Millisecond}
	start := time.Now()
	allocs := testing.AllocsPerRun(100, func() {
		if h.Quiet() != nil || h.Registry() != nil || h.Trace() != nil || h.Journal() != nil || h.Profile() != nil {
			t.Fatal("nil instrument exposes a sink")
		}
		h.EngineRound(1, 10)
		h.EngineRun(3, 100, 5, 40, time.Millisecond)
		h.ParallelRound(8, time.Microsecond, busy)
		h.GraphBuilt(12, 30, start)
		h.RRArena(4096, 0)
		h.IMMRound(journal.IMMInfo{Round: 1})
		h.IMMRun(2, 100, 300, true)
		r := h.NewRR(0)
		r.Set(0, 4, r.Start())
		r.Flush()
	})
	if allocs != 0 {
		t.Errorf("nil instrument allocated %v times per run", allocs)
	}
}

// TestInstrRecordsEachEventOnce checks what each record writes into each
// sink, and that Quiet keeps the registry and the profile but not the
// journal.
func TestInstrRecordsEachEventOnce(t *testing.T) {
	reg := obs.NewRegistry()
	j := journal.New("instr", journal.Options{})
	p := prof.New()
	p.EnsureTargets(2)
	h := instr.New(reg, obs.StartSpan("solve"), j, p)

	h.GraphBuilt(12, 30, time.Now())
	h.Quiet().GraphBuilt(5, 7, time.Now())
	h.EngineRound(1, 10)
	h.Quiet().EngineRound(1, 3)
	h.EngineRun(1, 100, 5, 40, time.Millisecond)
	h.IMMRound(journal.IMMInfo{Round: 1, Theta: 64})
	h.IMMRun(2, 64, 128, true)
	h.IMMRun(1, 0, 0, false)

	r := h.NewRR(3)
	r.Set(1, 4, r.Start())
	r.Set(0, 2, time.Time{}) // zero start: not a walk
	r.Flush()

	for name, want := range map[string]int64{
		obs.GraphBuilds: 2, obs.GraphNodes: 17, obs.GraphEdges: 37,
		obs.EngineRuns: 1, obs.EngineInstantiations: 100,
		obs.IMMRuns: 1, obs.IMMRounds: 3, obs.IMMTotalRR: 128,
		obs.RRSets: 2,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Histogram(obs.EngineDeltaSize).Snapshot().Count; got != 2 {
		t.Errorf("engine.delta_size count = %d, want 2", got)
	}
	counts := map[journal.EventType]int{}
	for _, ev := range j.Snapshot() {
		counts[ev.Type]++
		if ev.Type == journal.TypeRRBatch && (ev.RR.Worker != 3 || ev.RR.Sets != 2 || ev.RR.Members != 6) {
			t.Errorf("rr.batch %+v, want worker 3 with 2 sets of 6 members", *ev.RR)
		}
	}
	want := map[journal.EventType]int{
		journal.TypeGraphBuild: 1, journal.TypeEngineRound: 1, journal.TypeIMMRound: 1, journal.TypeRRBatch: 1,
	}
	for typ, n := range want {
		if counts[typ] != n {
			t.Errorf("%s events = %d, want %d", typ, counts[typ], n)
		}
	}
	if rep := p.Report(); rep.RR == nil || rep.RR.Walks != 1 || rep.RR.Members != 4 {
		t.Errorf("profile RR = %+v, want one walk of 4 members", rep.RR)
	}
	if q := h.Quiet(); q.Journal() != nil || q.Trace() != nil || q.Registry() != reg || q.Profile() != p {
		t.Error("Quiet must keep exactly the registry and the profile")
	}
	if instr.New(nil, obs.StartSpan("solve"), j, nil).Quiet() != nil {
		t.Error("Quiet of a journal-and-trace instrument must be nil")
	}
}
