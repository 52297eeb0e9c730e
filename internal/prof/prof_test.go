package prof

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestNilNoOp exercises every method on the nil receivers instrumented
// code holds when profiling is off: nothing may panic, and the derived
// objects must themselves be the nil no-op.
func TestNilNoOp(t *testing.T) {
	var p *Profile
	p.SetAlgorithm("x")
	p.EnsureTargets(4)
	p.SetTargetNames([]string{"a"})
	p.RecordWalk(0, 3, 5)
	p.RecordPlan(1, 2, 3)
	p.RecordPhase("build", 7)
	p.RecordArena(9)
	p.RecordHotNodes([]HotNode{{Node: "n", Visits: 1}})
	r := p.StartEngine([]string{"r0"})
	if r != nil {
		t.Fatalf("StartEngine on nil Profile = %v, want nil", r)
	}
	c := r.NewCounters([]int{2})
	if c != nil {
		t.Fatalf("NewCounters on nil run = %v, want nil", c)
	}
	r.BeginRound(0, 10)
	r.RuleFired(0, true)
	r.RuleTime(0, 5)
	r.Finish()
	if rep := p.Report(); rep != nil {
		t.Fatalf("Report on nil Profile = %v, want nil", rep)
	}
}

// TestNilAllocFree pins the disabled-profiling cost: the nil path must not
// allocate, so threading the hooks through the hot loops is free when no
// profiler is attached.
func TestNilAllocFree(t *testing.T) {
	var p *Profile
	var r *EngineRun
	allocs := testing.AllocsPerRun(100, func() {
		p.RecordWalk(0, 3, 5)
		r2 := p.StartEngine(nil)
		_ = r2
		r.BeginRound(0, 1)
		r.RuleFired(0, true)
		r.RuleTime(0, 5)
		r.Finish()
	})
	if allocs != 0 {
		t.Fatalf("nil-profile path allocates %.1f times per op, want 0", allocs)
	}
}

// TestEngineRunMerge drives one engine run through two counter blocks and
// checks the report folds the blocks' counts, the run's firings, and its
// pass times into one rule ledger.
func TestEngineRunMerge(t *testing.T) {
	p := New()
	p.SetAlgorithm("TestCM")
	run := p.StartEngine([]string{"r0", "r1"})
	w1 := run.NewCounters([]int{2, 1})
	w2 := run.NewCounters([]int{2, 1})

	run.BeginRound(0, 10)
	// Worker-side: r0 matched 5 instantiations on w1 and 3 on w2, one
	// gate-suppressed on each; step fan-out split across the workers.
	w1.Attempted[0], w2.Attempted[0] = 5, 3
	w1.Suppressed[0], w2.Suppressed[0] = 1, 1
	w1.StepMatches[0][0], w2.StepMatches[0][0] = 20, 10
	w1.StepMatches[0][1], w2.StepMatches[0][1] = 5, 3
	w1.StepVetoes[0][1], w2.StepVetoes[0][1] = 2, 4
	run.RuleTime(0, 100)
	run.RuleTime(0, 50)
	// Emit path: 6 fired, 4 first-derived.
	for i := 0; i < 6; i++ {
		run.RuleFired(0, i < 4)
	}

	run.BeginRound(0, 4)
	w1.Attempted[1] = 2
	run.RuleTime(1, 30)
	run.RuleFired(1, true)
	run.RuleFired(1, false)
	run.Finish()

	rep := p.Report()
	if rep.Algorithm != "TestCM" || rep.EngineRuns != 1 {
		t.Fatalf("header = (%q, %d), want (TestCM, 1)", rep.Algorithm, rep.EngineRuns)
	}
	if rep.Attempted != 10 || rep.Derived != 8 || rep.NewFacts != 5 || rep.Suppressed != 2 {
		t.Fatalf("totals attempted=%d derived=%d new=%d suppressed=%d, want 10/8/5/2",
			rep.Attempted, rep.Derived, rep.NewFacts, rep.Suppressed)
	}
	if rep.EarlyVetoes != 6 || rep.EvalNs != 180 {
		t.Fatalf("vetoes=%d evalNs=%d, want 6/180", rep.EarlyVetoes, rep.EvalNs)
	}
	if len(rep.Rules) != 2 {
		t.Fatalf("got %d rules, want 2", len(rep.Rules))
	}
	// r0 has the larger self-time, so it ranks first.
	r0 := rep.Rules[0]
	if r0.Rule != "r0" {
		t.Fatalf("top rule = %q, want r0 (self-time ranking)", r0.Rule)
	}
	if r0.Attempted != 8 || r0.Derived != 6 || r0.NewFacts != 4 || r0.Suppressed != 2 || r0.SelfNs != 150 {
		t.Fatalf("r0 ledger = %+v", r0)
	}
	if want := 1 - float64(4)/float64(6); r0.DedupRate != want {
		t.Fatalf("r0 dedup = %g, want %g", r0.DedupRate, want)
	}
	if len(r0.Steps) != 2 || r0.Steps[0].Matches != 30 || r0.Steps[1].Matches != 8 || r0.Steps[1].Vetoes != 6 {
		t.Fatalf("r0 steps = %+v", r0.Steps)
	}
	if len(r0.Rounds) != 1 || r0.Rounds[0].Round != 1 || r0.Rounds[0].Derived != 6 || r0.Rounds[0].SelfNs != 150 {
		t.Fatalf("r0 rounds = %+v", r0.Rounds)
	}
	if len(rep.Strata) != 1 || len(rep.Strata[0].Rounds) != 2 ||
		rep.Strata[0].Rounds[0].Delta != 10 || rep.Strata[0].Rounds[1].Delta != 4 {
		t.Fatalf("strata = %+v", rep.Strata)
	}
}

// TestRuleFamilyAggregation checks that two engine runs naming the same
// rule merge into one family ledger — the Magic variants' thousands of
// per-target fixpoints must not each become a report row.
func TestRuleFamilyAggregation(t *testing.T) {
	p := New()
	for i := 0; i < 3; i++ {
		run := p.StartEngine([]string{"shared"})
		c := run.NewCounters([]int{1})
		run.BeginRound(0, 1)
		c.Attempted[0] = 2
		run.RuleFired(0, true)
		run.RuleFired(0, false)
		run.Finish()
	}
	rep := p.Report()
	if rep.EngineRuns != 3 {
		t.Fatalf("engine runs = %d, want 3", rep.EngineRuns)
	}
	if len(rep.Rules) != 1 {
		t.Fatalf("got %d rule rows, want 1 merged family", len(rep.Rules))
	}
	if r := rep.Rules[0]; r.Attempted != 6 || r.Derived != 6 || r.NewFacts != 3 {
		t.Fatalf("family ledger = %+v", r)
	}
}

// TestIdleRulesSkipped: a rule that never matched, fired, or vetoed in a
// run must not appear in the profile (the Magic variants instantiate the
// whole adorned program per target; most rules are idle per run).
func TestIdleRulesSkipped(t *testing.T) {
	p := New()
	run := p.StartEngine([]string{"busy", "idle"})
	c := run.NewCounters([]int{1, 1})
	run.BeginRound(0, 1)
	c.Attempted[0] = 1
	run.RuleFired(0, true)
	run.Finish()
	rep := p.Report()
	if len(rep.Rules) != 1 || rep.Rules[0].Rule != "busy" {
		t.Fatalf("rules = %+v, want only busy", rep.Rules)
	}
}

// TestRuleCap: more rule families than maxRulesReported fold into the
// totals with RulesOmitted accounting for them.
func TestRuleCap(t *testing.T) {
	p := New()
	names := make([]string, maxRulesReported+7)
	lens := make([]int, len(names))
	for i := range names {
		names[i] = fmt.Sprintf("r%03d", i)
		lens[i] = 1
	}
	run := p.StartEngine(names)
	run.NewCounters(lens)
	run.BeginRound(0, 1)
	for i := range names {
		run.RuleFired(i, true)
	}
	run.Finish()
	rep := p.Report()
	if len(rep.Rules) != maxRulesReported || rep.RulesOmitted != 7 {
		t.Fatalf("got %d rules, %d omitted; want %d and 7", len(rep.Rules), rep.RulesOmitted, maxRulesReported)
	}
	if rep.Derived != int64(len(names)) {
		t.Fatalf("totals must cover omitted rules: derived = %d, want %d", rep.Derived, len(names))
	}
}

// TestRoundCapFolds: round ordinals past maxRoundsTracked aggregate into
// the last slot instead of growing the breakdown without bound.
func TestRoundCapFolds(t *testing.T) {
	p := New()
	run := p.StartEngine([]string{"r"})
	run.NewCounters([]int{1})
	for i := 0; i < maxRoundsTracked+20; i++ {
		run.BeginRound(0, 1)
		run.RuleFired(0, true)
	}
	run.Finish()
	rep := p.Report()
	rounds := rep.Rules[0].Rounds
	if len(rounds) != maxRoundsTracked {
		t.Fatalf("tracked %d rounds, cap is %d", len(rounds), maxRoundsTracked)
	}
	last := rounds[len(rounds)-1]
	if last.Derived != 21 {
		t.Fatalf("last slot derived = %d, want 21 (the folded tail)", last.Derived)
	}
	if sc := rep.Strata[0].Rounds; len(sc) != maxRoundsTracked || sc[len(sc)-1].Delta != 21 {
		t.Fatalf("stratum curve = %d rounds, tail delta %d; want %d and 21",
			len(sc), sc[len(sc)-1].Delta, maxRoundsTracked)
	}
}

// TestWalkAttribution checks the per-target RR arrays and their ranked,
// capped report form.
func TestWalkAttribution(t *testing.T) {
	p := New()
	p.EnsureTargets(3)
	p.SetTargetNames([]string{"t0", "t1", "t2"})
	p.RecordWalk(0, 5, 100)
	p.RecordWalk(0, 3, 50)
	p.RecordWalk(2, 7, 900)
	p.RecordWalk(-1, 9, 9) // out of range: ignored
	p.RecordWalk(3, 9, 9)
	p.RecordArena(4096)
	p.RecordHotNodes([]HotNode{{Node: "edge(a, b)", Visits: 4}})
	rep := p.Report()
	rr := rep.RR
	if rr == nil {
		t.Fatal("no RR block")
	}
	if rr.Walks != 3 || rr.Members != 15 || rr.WalkNs != 1050 || rr.ArenaBytes != 4096 {
		t.Fatalf("rr totals = %+v", rr)
	}
	// t1 had no walks and is skipped; t2 outranks t0 by walk time.
	if len(rr.Targets) != 2 || rr.Targets[0].Target != "t2" || rr.Targets[1].Target != "t0" {
		t.Fatalf("targets = %+v", rr.Targets)
	}
	if rr.Targets[1].Walks != 2 || rr.Targets[1].Members != 8 || rr.Targets[1].Bytes != 32 {
		t.Fatalf("t0 attribution = %+v", rr.Targets[1])
	}
	if len(rr.HotNodes) != 1 || rr.HotNodes[0].Visits != 4 {
		t.Fatalf("hot nodes = %+v", rr.HotNodes)
	}
}

// buildProfile constructs the same logical work split across a given
// number of counter blocks, with scheduling-dependent times varied, to
// model the same solve at different Parallelism levels.
func buildProfile(workers int, timeScale int64) *Profile {
	p := New()
	p.SetAlgorithm("TestCM")
	p.EnsureTargets(2)
	p.SetTargetNames([]string{"a", "b"})
	run := p.StartEngine([]string{"r0", "r1"})
	cs := make([]*JoinCounters, workers)
	for i := range cs {
		cs[i] = run.NewCounters([]int{2, 1})
	}
	run.BeginRound(0, 12)
	// 12 attempted instantiations of r0, partitioned round-robin.
	for i := 0; i < 12; i++ {
		cs[i%workers].Attempted[0]++
		cs[i%workers].StepMatches[0][0] += 3
		cs[i%workers].StepMatches[0][1]++
		run.RuleTime(0, timeScale) // scheduling-dependent
	}
	for i := 0; i < 12; i++ {
		run.RuleFired(0, i%3 == 0)
	}
	run.Finish()
	p.RecordWalk(0, 4, 17*timeScale)
	p.RecordWalk(1, 6, 11*timeScale)
	p.RecordPhase("rrgen", 23*timeScale)
	return p
}

// TestCountsJSONDeterminism is the package-level determinism contract:
// the same logical work split across different worker counts with
// different wall times must produce byte-identical CountsJSON.
func TestCountsJSONDeterminism(t *testing.T) {
	base, err := buildProfile(1, 1000).Report().CountsJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := buildProfile(workers, int64(workers)*777).Report().CountsJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(base, got) {
			t.Fatalf("CountsJSON differs at %d workers:\n%s\nvs\n%s", workers, base, got)
		}
	}
	var rt map[string]any
	if err := json.Unmarshal(base, &rt); err != nil {
		t.Fatalf("CountsJSON not valid JSON: %v", err)
	}
	if _, hasTimes := rt["eval_ns"]; hasTimes {
		t.Fatal("CountsJSON leaked a wall-time field")
	}
}

// TestRenderers smoke-tests both output forms on a populated profile.
func TestRenderers(t *testing.T) {
	rep := buildProfile(2, 50).Report()
	var jb bytes.Buffer
	if err := rep.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var decoded RuntimeProfile
	if err := json.Unmarshal(jb.Bytes(), &decoded); err != nil {
		t.Fatalf("artifact does not round-trip: %v", err)
	}
	if decoded.Schema != Schema || decoded.Derived != rep.Derived {
		t.Fatalf("round-trip lost data: %+v", decoded)
	}
	var tb bytes.Buffer
	if err := rep.WriteText(&tb); err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	for _, want := range []string{"EXPLAIN ANALYZE (TestCM)", "rule r0", "rr phase", "phase rrgen"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text tree missing %q:\n%s", want, out)
		}
	}
	var nilRep *RuntimeProfile
	tb.Reset()
	if err := nilRep.WriteText(&tb); err != nil || !strings.Contains(tb.String(), "no profile") {
		t.Fatalf("nil WriteText = (%q, %v)", tb.String(), err)
	}
}
