package main

import (
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"contribmax/internal/cm"
	"contribmax/internal/im"
)

func TestPercentileRuleAndSampleCount(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input
	}
	v, beyond := percentile(xs, 0.9)
	if v != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if xs[0] != 100 {
		t.Fatal("percentile sorted its input in place")
	}
	if got := minSamplesFor(0.9); got != 100 {
		t.Fatalf("minSamplesFor(0.9) = %d, want 100", got)
	}
	if got := minSamplesFor(0.5); got != 20 {
		t.Fatalf("minSamplesFor(0.5) = %d, want 20", got)
	}
	s, ok := summarize("latency_p90_ms", xs, 0.9)
	if !ok {
		t.Fatal("100 samples should satisfy the p90 tail rule")
	}
	if line := s.String(); !strings.Contains(line, "n=100") || !strings.Contains(line, "10 beyond") {
		t.Fatalf("printed line %q lacks the sample count", line)
	}
	if _, ok := summarize("latency_p90_ms", xs[:99], 0.9); ok {
		t.Fatal("99 samples leave 9 beyond p90 and must fail the tail rule")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "solve", Start: at(0), End: at(100)},
		// Two overlapping children (parallel work) cover 10..50 once.
		{ID: 2, Parent: 1, Name: "fixpoint", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "fixpoint", Start: at(20), End: at(50)},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "walk", Start: at(90), End: at(120)},
		{ID: 5, Parent: 3, Name: "compile", Start: at(25), End: at(35)},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"solve":    50 * time.Millisecond, // 100 - (40 + 10)
		"fixpoint": 40 * time.Millisecond, // 20 + (30 - 10)
		"walk":     30 * time.Millisecond,
		"compile":  10 * time.Millisecond,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, self[name], w)
		}
	}
	if tot := totalTimes(spans)["fixpoint"]; tot != 50*time.Millisecond {
		t.Errorf("total(fixpoint) = %v, want 50ms", tot)
	}
}

func TestTracerRecordsNestedRegions(t *testing.T) {
	tr := &tracer{}
	root := tr.begin(1, 0, "replay")
	child := tr.begin(1, root.id, "engine.compile")
	time.Sleep(2 * time.Millisecond)
	child.end()
	root.end()
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Op != 1 {
		t.Fatalf("unexpected spans %+v", spans)
	}
	if self := selfTimes(spans)["engine.compile"]; self < 2*time.Millisecond {
		t.Fatalf("child self time %v, want >= 2ms", self)
	}
	var nilTracer *tracer
	if d := nilTracer.begin(1, 0, "x").end(); d != 0 {
		t.Fatal("a nil tracer must record nothing")
	}
}

// TestDueTimeLatencyCountsStall stalls the server on the first request: the
// second request, due 20ms later and queued behind it on the one
// connection, must be charged the stall, not just its own service time.
func TestDueTimeLatencyCountsStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	tr := &http.Transport{MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	reqs := []*serveReq{
		{due: 0, path: "/", body: []byte("{}")},
		{due: 20 * time.Millisecond, path: "/", body: []byte("{}")},
	}
	res := openLoop(client, srv.URL, reqs, time.Now(), nil, 0)
	for i, r := range res {
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("request %d: status %d, %v", i, r.status, r.err)
		}
		if r.lag > 10*time.Millisecond {
			t.Errorf("request %d sent %v after its due time", i, r.lag)
		}
	}
	if min := stall - 20*time.Millisecond - 5*time.Millisecond; res[1].lat < min {
		t.Fatalf("second request latency %v from its due time; the %v stall ahead of it must count (>= %v)", res[1].lat, stall, min)
	}
}

// TestBusyTimeFollowsTheServer checks serve-mix's throughput base: the union
// of send-to-response intervals, which grows when the server slows down
// although the offered rate stays the same.
func TestBusyTimeFollowsTheServer(t *testing.T) {
	msD := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	reqs := []*serveReq{{due: 0}, {due: msD(100)}, {due: msD(150)}, {due: msD(400)}}
	results := []result{
		{lag: msD(1), lat: msD(50)},   // in flight 1..50
		{lag: msD(0), lat: msD(100)},  // 100..200
		{lag: msD(2), lat: msD(30)},   // 152..180, inside the previous one
		{lag: msD(10), lat: msD(110)}, // 410..510
	}
	if got, want := busyTime(reqs, results), msD(49+100+100); got != want {
		t.Fatalf("busy time %v, want %v", got, want)
	}
	for i := range results {
		results[i].lat = results[i].lag + 2*(results[i].lat-results[i].lag)
	}
	// Twice the service time: 1..99, 100..300 (152..208 inside it), 410..610.
	if got, want := busyTime(reqs, results), msD(98+200+200); got != want {
		t.Fatalf("busy time at half speed %v, want %v", got, want)
	}
}

// TestReplayReconcilesAndCatchesMismatch replays small Magic^S and NaiveCM
// solves: the replay must match the real solve, and a planted count
// mismatch must be reported.
func TestReplayReconcilesAndCatchesMismatch(t *testing.T) {
	in, err := genInstance(spec{"TC", 8}, rand.New(rand.NewPCG(1, 2)), 6, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, sampled := range []bool{true, false} {
		par := 1
		if !sampled {
			par = 2
		}
		ri := replayInput{prog: in.prog, db: in.db, targets: in.targets, k: 3, theta: 40, par: par, rngSeed: 5}
		opts := cm.Options{Theta: im.ThetaSpec{Explicit: ri.theta}, Rand: solveRand(ri.rngSeed), Parallelism: par}
		input := cm.Input{Program: in.prog, DB: in.db, T2: in.targets, K: ri.k}
		var res *cm.Result
		var sh shape
		if sampled {
			res, err = cm.MagicSampledCM(input, opts)
			if err == nil {
				sh, _, err = replayMagicSampled(ri, &tracer{}, 1)
			}
		} else {
			res, err = cm.NaiveCM(input, opts)
			if err == nil {
				sh, _, err = replayNaive(ri, &tracer{}, 1)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		real := shapeOf(res)
		if diffs := reconcile(sh, real); len(diffs) > 0 {
			t.Fatalf("sampled=%v: replay does not reconcile: %v", sampled, diffs)
		}
		planted := sh
		planted.Edges++
		diffs := reconcile(planted, real)
		if len(diffs) != 1 || !strings.HasPrefix(diffs[0], "edges:") {
			t.Fatalf("sampled=%v: planted edge mismatch reported as %v", sampled, diffs)
		}
	}
}

func TestCheckSeeds(t *testing.T) {
	t1 := map[string]bool{"e(a, b)": true, "e(b, c)": true, "e(c, d)": true}
	ok := []string{"e(a, b)", "e(c, d)"}
	if err := checkSeeds(ok, []int{5, 3}, 2, t1); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	bad := []struct {
		name  string
		seeds []string
		gains []int
		k     int
	}{
		{"too many", ok, []int{5, 3}, 1},
		{"duplicate", []string{"e(a, b)", "e(a, b)"}, []int{5, 3}, 2},
		{"not a candidate", []string{"e(x, y)"}, []int{1}, 2},
		{"rising gains", ok, []int{3, 5}, 2},
		{"gain count", ok, []int{3}, 2},
		{"empty", nil, nil, 2},
	}
	for _, c := range bad {
		if err := checkSeeds(c.seeds, c.gains, c.k, t1); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric names, units and
// directions the benchmark reports in step with BENCHMARK.json.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not found: %v", err)
	}
	var cfg struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEnd)
	check("per_layer", cfg.PerLayer, perLayer)
}

func TestParseServeConfig(t *testing.T) {
	sc, err := parseServeConfig(10, "15, 20,30", 500)
	if err != nil || len(sc.ladder) != 3 || sc.ladder[2] != 30 {
		t.Fatalf("got %+v, %v", sc, err)
	}
	for _, c := range []struct {
		rate, slo float64
		ladder    string
	}{{0, 500, ""}, {10, 0, ""}, {10, 500, "20,15"}, {10, 500, "x"}} {
		if _, err := parseServeConfig(c.rate, c.ladder, c.slo); err == nil {
			t.Errorf("%+v accepted", c)
		}
	}
}
