package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"contribmax/internal/obs"
)

func TestNilJournalIsNoOp(t *testing.T) {
	var j *Journal
	j.SolveStart(SolveInfo{Algorithm: "NaiveCM"})
	j.SolveFinish(FinishInfo{})
	j.EngineRound(1, 10)
	j.GraphBuild(1, 2, time.Millisecond)
	j.RRBatch(RRBatchInfo{})
	j.IMMRound(IMMInfo{})
	j.SelectIter(IterInfo{})
	if j.Run() != "" || j.Len() != 0 || j.Snapshot() != nil {
		t.Fatal("nil journal leaked state")
	}
	replay, ch, cancel := j.Subscribe(4)
	if replay != nil {
		t.Fatal("nil journal returned replay")
	}
	if _, open := <-ch; open {
		t.Fatal("nil journal channel not closed")
	}
	cancel()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// A BatchRecorder over a nil journal observes for free.
	r := NewBatchRecorder(nil, 3)
	for i := 0; i < 1000; i++ {
		r.Observe(i)
	}
	r.Flush()
	var zero *BatchRecorder
	zero.Observe(1)
	zero.Flush()
}

func TestEventOrderingAndStamping(t *testing.T) {
	j := New("run1", Options{})
	j.SolveStart(SolveInfo{Algorithm: "MagicCM", K: 3})
	j.EngineRound(1, 7)
	j.SelectIter(IterInfo{I: 0, Seed: "e(a,b)", Gain: 5, Covered: 5, Coverage: 0.5})
	evs := j.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != int64(i+1) {
			t.Errorf("event %d: seq = %d", i, ev.Seq)
		}
		if ev.Run != "run1" {
			t.Errorf("event %d: run = %q", i, ev.Run)
		}
		if ev.TNs < 0 {
			t.Errorf("event %d: t_ns = %d", i, ev.TNs)
		}
	}
	if evs[0].Type != TypeSolveStart || evs[0].Solve.Algorithm != "MagicCM" {
		t.Errorf("event 0 = %+v", evs[0])
	}
	if evs[1].Type != TypeEngineRound || evs[1].Round.Delta != 7 {
		t.Errorf("event 1 = %+v", evs[1])
	}
	if evs[2].Type != TypeSelectIter || evs[2].Iter.Gain != 5 {
		t.Errorf("event 2 = %+v", evs[2])
	}
}

func TestRingBufferEviction(t *testing.T) {
	j := New("r", Options{Capacity: 8})
	for i := 1; i <= 20; i++ {
		j.EngineRound(i, i)
	}
	evs := j.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("len = %d, want 8", len(evs))
	}
	for i, ev := range evs {
		want := int64(13 + i) // events 13..20 survive
		if ev.Seq != want {
			t.Fatalf("evs[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
	}
	if j.Len() != 8 {
		t.Fatalf("Len = %d", j.Len())
	}
}

func TestJSONLSinkReceivesEvictedEvents(t *testing.T) {
	var buf bytes.Buffer
	j := New("sink", Options{Capacity: 4, Sink: &buf})
	for i := 1; i <= 10; i++ {
		j.EngineRound(i, 2*i)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		n++
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if ev.Seq != int64(n) || ev.Type != TypeEngineRound || ev.Round.Delta != 2*n {
			t.Fatalf("line %d decoded to %+v", n, ev)
		}
		// Only the matching payload is serialized.
		if strings.Contains(sc.Text(), `"solve"`) || strings.Contains(sc.Text(), `"iter"`) {
			t.Fatalf("line %d carries foreign payloads: %s", n, sc.Text())
		}
	}
	if n != 10 {
		t.Fatalf("sink got %d lines, want all 10 despite capacity 4", n)
	}
}

func TestSubscribeReplayThenLiveNoGap(t *testing.T) {
	j := New("sub", Options{})
	j.EngineRound(1, 1)
	j.EngineRound(2, 2)
	replay, ch, cancel := j.Subscribe(16)
	defer cancel()
	if len(replay) != 2 {
		t.Fatalf("replay = %d events", len(replay))
	}
	j.EngineRound(3, 3)
	select {
	case ev := <-ch:
		if ev.Seq != 3 {
			t.Fatalf("live event seq = %d", ev.Seq)
		}
	case <-time.After(time.Second):
		t.Fatal("no live event")
	}
	// Close ends the stream.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, open := <-ch; open {
		t.Fatal("channel still open after Close")
	}
}

func TestSlowSubscriberIsDroppedNotBlocking(t *testing.T) {
	j := New("slow", Options{})
	_, ch, cancel := j.Subscribe(2)
	defer cancel()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10; i++ { // overflows the buffer of 2
			j.EngineRound(i, i)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("emitter blocked on slow subscriber")
	}
	// Drain: the channel must be closed after at most 2 buffered events.
	n := 0
	for range ch {
		n++
	}
	if n > 2 {
		t.Fatalf("received %d events from a buffer of 2", n)
	}
}

// TestLossCountersOnRegistry forces both of the journal's data-loss modes
// and asserts they surface on the wired obs registry: a slow subscriber
// disconnect increments journal.dropped, a ring overwrite increments
// journal.overwritten.
func TestLossCountersOnRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	j := New("loss", Options{Capacity: 4, Obs: reg})
	// A 1-slot subscriber that is never read: the first emit fills the
	// buffer, the second finds it full and disconnects the subscriber.
	_, ch, cancel := j.Subscribe(1)
	defer cancel()
	j.EngineRound(1, 1)
	j.EngineRound(2, 2)
	if got := reg.Snapshot().Counters[obs.JournalDropped]; got != 1 {
		t.Fatalf("journal.dropped = %d after forced disconnect, want 1", got)
	}
	if _, open := <-ch; !open {
		// first buffered event; fine either way
	}
	// Overflow the 4-slot ring: 10 appends total leave 6 overwritten.
	for i := 3; i <= 10; i++ {
		j.EngineRound(i, i)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[obs.JournalOverwritten]; got != 6 {
		t.Fatalf("journal.overwritten = %d, want 6", got)
	}
	if got := snap.Counters[obs.JournalDropped]; got != 1 {
		t.Fatalf("journal.dropped = %d after subscriber already gone, want still 1", got)
	}
}

// TestProfileSummaryEvent checks the profile.summary event round-trips
// through JSONL with its typed payload intact.
func TestProfileSummaryEvent(t *testing.T) {
	var buf bytes.Buffer
	j := New("p", Options{Sink: &buf})
	j.ProfileSummary(ProfileInfo{
		Algorithm:  "MagicSCM",
		EngineRuns: 42,
		Rules:      7,
		Attempted:  100,
		Derived:    90,
		NewFacts:   30,
		EvalNs:     12345,
		Walks:      42,
		WalkNs:     678,
		TopRules:   []TopRule{{Rule: "r0", Derived: 50, SelfNs: 999}},
	})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var ev Event
	if err := json.Unmarshal(buf.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Type != TypeProfileSummary || ev.Profile == nil {
		t.Fatalf("event = %+v", ev)
	}
	p := ev.Profile
	if p.Algorithm != "MagicSCM" || p.EngineRuns != 42 || p.Derived != 90 ||
		len(p.TopRules) != 1 || p.TopRules[0].SelfNs != 999 {
		t.Fatalf("payload lost fields: %+v", p)
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	j := New("c", Options{})
	_, _, cancel := j.Subscribe(1)
	cancel()
	cancel()
	j.Close()
	cancel()
}

func TestConcurrentEmitSnapshotSubscribe(t *testing.T) {
	j := New("conc", Options{Capacity: 64})
	var emitters, reader sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		emitters.Add(1)
		go func(w int) {
			defer emitters.Done()
			r := NewBatchRecorder(j, w)
			for i := 0; i < 2000; i++ {
				r.Observe(i % 17)
			}
			r.Flush()
		}(w)
	}
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			evs := j.Snapshot()
			for i := 1; i < len(evs); i++ {
				if evs[i].Seq != evs[i-1].Seq+1 {
					t.Errorf("snapshot not contiguous: %d then %d", evs[i-1].Seq, evs[i].Seq)
					return
				}
			}
			_, ch, cancel := j.Subscribe(8)
			cancel()
			for range ch {
			}
		}
	}()
	emitters.Wait()
	close(stop)
	reader.Wait()

	// Totals across workers must cover every observation.
	totals := map[int]int{}
	for _, ev := range j.Snapshot() {
		if ev.Type == TypeRRBatch {
			totals[ev.RR.Worker] = ev.RR.TotalSets
		}
	}
	for w, n := range totals {
		if n != 2000 {
			t.Errorf("worker %d total = %d, want 2000", w, n)
		}
	}
}

func TestBatchRecorderAggregation(t *testing.T) {
	j := New("batch", Options{})
	r := NewBatchRecorder(j, 1)
	// 300 observations: one auto-flush at 256, 44 left for the manual one.
	for i := 0; i < 300; i++ {
		m := 2
		if i%3 == 0 {
			m = 0
		}
		r.Observe(m)
	}
	r.Flush()
	evs := j.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("got %d batch events, want 2", len(evs))
	}
	b1, b2 := evs[0].RR, evs[1].RR
	if b1.Sets != 256 || b2.Sets != 44 {
		t.Fatalf("batch sizes %d/%d", b1.Sets, b2.Sets)
	}
	if b2.TotalSets != 300 {
		t.Fatalf("TotalSets = %d", b2.TotalSets)
	}
	wantMembers := 0
	for i := 0; i < 300; i++ {
		if i%3 != 0 {
			wantMembers += 2
		}
	}
	if b2.TotalMembers != wantMembers {
		t.Fatalf("TotalMembers = %d, want %d", b2.TotalMembers, wantMembers)
	}
	wantEmpty := 0
	for i := 256; i < 300; i++ {
		if i%3 == 0 {
			wantEmpty++
		}
	}
	if b2.Empty != wantEmpty || b2.MaxLen != 2 {
		t.Fatalf("batch 2 = %+v", b2)
	}
	// Flushing an empty recorder emits nothing.
	r.Flush()
	if j.Len() != 2 {
		t.Fatal("empty flush emitted")
	}
}

func TestNewRunIDShape(t *testing.T) {
	a, b := NewRunID(), NewRunID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("ids %q %q", a, b)
	}
	if a == b {
		t.Fatal("collision")
	}
	if j := New("", Options{}); len(j.Run()) != 16 {
		t.Fatalf("auto run id %q", j.Run())
	}
}

func TestFingerprintInputGolden(t *testing.T) {
	// Pinned hashes: the rendering of FingerprintInput.Hash may only change
	// together with a schema Version bump. If this test fails because the
	// rendering changed, bump fingerprintVersion and re-pin.
	zero := FingerprintInput{}
	if got, want := zero.Hash(), "70fd587cb88ee0d1"; got != want {
		t.Fatalf("zero-value hash = %s, want %s", got, want)
	}
	full := FingerprintInput{
		Algorithm: "MagicSampledCM", Database: "db-hash", Program: "prog-hash",
		Target: "target-hash", K: 5, Candidates: 100, Targets: 40,
		ThetaExplicit: 400, ThetaFraction: 0.3, ThetaEpsilon: 0.1,
		ThetaDelta: 0.01, ThetaMaxAuto: 100000, Adaptive: false,
		Parallelism: 4, MaxSeedsPerRelation: 2,
		SIPS: "left-to-right", Prune: true,
	}
	if got, want := full.Hash(), "b6d9cd1b0e99d13e"; got != want {
		t.Fatalf("full hash = %s, want %s", got, want)
	}
}

func TestFingerprintInputTypedFieldsCannotCollide(t *testing.T) {
	// The same bytes shifted across a field boundary must be two distinct
	// keys.
	a := FingerprintInput{Database: "ab", Program: "c"}
	b := FingerprintInput{Database: "a", Program: "bc"}
	if a.Hash() == b.Hash() {
		t.Fatal("field boundary collision across Database/Program")
	}
	// Same value in a different field is a different key.
	c := FingerprintInput{Database: "x"}
	d := FingerprintInput{Program: "x"}
	if c.Hash() == d.Hash() {
		t.Fatal("cross-field collision")
	}
	// Explicit current version and zero version agree (zero means current).
	e := FingerprintInput{Algorithm: "NaiveCM", Version: fingerprintVersion}
	f := FingerprintInput{Algorithm: "NaiveCM"}
	if e.Hash() != f.Hash() {
		t.Fatal("zero Version must default to the current schema version")
	}
	// A different version is a different key space.
	g := FingerprintInput{Algorithm: "NaiveCM", Version: fingerprintVersion + 1}
	if g.Hash() == f.Hash() {
		t.Fatal("version must partition the key space")
	}
}

func TestErrProxy(t *testing.T) {
	if got := ErrProxy(0, 100); got != 0 {
		t.Fatalf("ErrProxy(0,100) = %v", got)
	}
	if got := ErrProxy(10, 0); got != 0 {
		t.Fatalf("ErrProxy(10,0) = %v", got)
	}
	// Full coverage: proxy hits zero.
	if got := ErrProxy(100, 100); got != 0 {
		t.Fatalf("ErrProxy(100,100) = %v", got)
	}
	// More covered sets at the same fraction shrink the proxy.
	small, big := ErrProxy(10, 100), ErrProxy(100, 1000)
	if !(big < small) {
		t.Fatalf("proxy should shrink with scale: %v vs %v", small, big)
	}
}

func TestEmitAfterCloseDropped(t *testing.T) {
	j := New("closed", Options{})
	j.EngineRound(1, 1)
	j.Close()
	j.EngineRound(2, 2)
	if j.Len() != 1 {
		t.Fatalf("Len = %d after close", j.Len())
	}
	// Subscribe after close: replay works, channel closed.
	replay, ch, cancel := j.Subscribe(1)
	defer cancel()
	if len(replay) != 1 {
		t.Fatalf("replay = %d", len(replay))
	}
	if _, open := <-ch; open {
		t.Fatal("live channel open after close")
	}
}
