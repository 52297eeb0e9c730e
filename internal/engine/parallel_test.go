package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/obs"
	"contribmax/internal/obs/instr"
)

// tcFixture builds a transitive-closure workload large enough to cross the
// parallel engine's small-round sequential fallback: a directed ring with
// chords over n nodes.
func tcFixture(t *testing.T, n int) (*ast.Program, func() *db.Database) {
	t.Helper()
	prog := mustProgram(t, `
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- path(X, Y), edge(Y, Z).
		reach(X) :- path(src, X).
	`)
	var facts strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&facts, "edge(n%d, n%d).\n", i, (i+1)%n)
		fmt.Fprintf(&facts, "edge(n%d, n%d).\n", i, (i+7)%n)
	}
	fmt.Fprintf(&facts, "edge(src, n0).\n")
	src := facts.String()
	return prog, func() *db.Database { return mustFacts(t, src) }
}

// evalSnapshot captures everything the determinism contract covers: every
// relation's full tuple sequence in id order, the Stats, and the exact
// derivation stream (as rendered strings, including tuple ids and HeadNew).
func evalSnapshot(t *testing.T, prog *ast.Program, d *db.Database, opts engine.Options) (string, engine.Stats) {
	t.Helper()
	var sb strings.Builder
	opts.Listener = func(dv engine.Derivation) {
		fmt.Fprintf(&sb, "d %d %s/%d new=%t [", dv.RuleIndex, dv.Head.Rel.Name(), dv.Head.ID, dv.HeadNew)
		for _, b := range dv.Body {
			fmt.Fprintf(&sb, " %s/%d", b.Rel.Name(), b.ID)
		}
		sb.WriteString(" ]\n")
	}
	eng, err := engine.New(prog, d)
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	stats, err := eng.Run(opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, name := range d.RelationNames() {
		rel, _ := d.Lookup(name)
		fmt.Fprintf(&sb, "r %s", name)
		for id := 0; id < rel.Len(); id++ {
			fmt.Fprintf(&sb, " %v", rel.Tuple(db.TupleID(id)))
		}
		sb.WriteString("\n")
	}
	return sb.String(), stats
}

// TestParallelByteIdentical pins the tentpole contract directly at the
// engine API: relations (tuple ids included), Stats, and the derivation
// stream are byte-identical across Parallelism levels.
func TestParallelByteIdentical(t *testing.T) {
	prog, freshDB := tcFixture(t, 60)
	wantSnap, wantStats := evalSnapshot(t, prog, freshDB(), engine.Options{})
	if wantStats.NewFacts == 0 || wantStats.Rounds < 3 {
		t.Fatalf("fixture too small to be meaningful: %+v", wantStats)
	}
	for _, par := range []int{0, 1, 2, 4, 8} {
		snap, stats := evalSnapshot(t, prog, freshDB(), engine.Options{Parallelism: par})
		if snap != wantSnap {
			t.Errorf("Parallelism=%d: snapshot diverges from sequential", par)
		}
		stats.Elapsed = wantStats.Elapsed
		if fmt.Sprintf("%+v", stats) != fmt.Sprintf("%+v", wantStats) {
			t.Errorf("Parallelism=%d: stats %+v, want %+v", par, stats, wantStats)
		}
	}
}

// TestParallelStratifiedNegation exercises the parallel path across
// stratum boundaries with negation and built-ins in the mix.
func TestParallelStratifiedNegation(t *testing.T) {
	prog := mustProgram(t, `
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- path(X, Y), edge(Y, Z).
		sep(X, Y) :- node(X), node(Y), not path(X, Y), neq(X, Y).
	`)
	var facts strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&facts, "node(n%d).\n", i)
		if i%3 != 0 {
			fmt.Fprintf(&facts, "edge(n%d, n%d).\n", i, (i+1)%40)
		}
	}
	src := facts.String()
	want, _ := evalSnapshot(t, prog, mustFacts(t, src), engine.Options{})
	for _, par := range []int{2, 8} {
		got, _ := evalSnapshot(t, prog, mustFacts(t, src), engine.Options{Parallelism: par})
		if got != want {
			t.Errorf("Parallelism=%d: snapshot diverges on stratified program", par)
		}
	}
}

// countGate counts calls; it deliberately does NOT implement
// ParallelSafeGate, so the engine must fall back to sequential evaluation
// (the count below would race otherwise, and -race would catch it).
type countGate struct{ calls int }

func (g *countGate) ShouldFire(ruleIndex int, vars []db.Sym) bool {
	g.calls++
	return g.calls%2 == 0
}

// TestParallelUnsafeGateFallsBackSequential pins the safety valve: a gate
// without the ParallelSafeGate marker forces sequential evaluation even at
// high Parallelism, with identical results to an explicit sequential run.
func TestParallelUnsafeGateFallsBackSequential(t *testing.T) {
	prog, freshDB := tcFixture(t, 60)
	seqGate := &countGate{}
	want, wantStats := evalSnapshot(t, prog, freshDB(), engine.Options{Gate: seqGate})
	parGate := &countGate{}
	got, gotStats := evalSnapshot(t, prog, freshDB(), engine.Options{Gate: parGate, Parallelism: 8})
	if got != want {
		t.Error("unsafe gate at Parallelism=8 diverges from sequential")
	}
	if parGate.calls != seqGate.calls {
		t.Errorf("gate calls %d, want %d", parGate.calls, seqGate.calls)
	}
	if gotStats.Suppressed != wantStats.Suppressed || gotStats.Suppressed == 0 {
		t.Errorf("suppressed %d, want %d (nonzero)", gotStats.Suppressed, wantStats.Suppressed)
	}
}

// hashEveryOther is a minimal ParallelSafeGate: order-independent (a pure
// function of the bound variables), so it is legal under parallelism.
type hashEveryOther struct{}

func (hashEveryOther) ShouldFire(ruleIndex int, vars []db.Sym) bool {
	h := uint64(ruleIndex+1) * 0x9e3779b97f4a7c15
	for _, v := range vars {
		h = (h ^ uint64(uint32(v))) * 0x100000001b3
	}
	return h&1 == 0
}
func (hashEveryOther) ParallelSafeFireGate() {}

// TestParallelSafeGateRunsParallel verifies a conforming gate keeps the
// parallel path engaged and suppression totals identical to sequential.
func TestParallelSafeGateRunsParallel(t *testing.T) {
	prog, freshDB := tcFixture(t, 60)
	want, wantStats := evalSnapshot(t, prog, freshDB(), engine.Options{Gate: hashEveryOther{}})
	reg := obs.NewRegistry()
	got, gotStats := evalSnapshot(t, prog, freshDB(), engine.Options{Gate: hashEveryOther{}, Parallelism: 4, Instr: instr.New(reg, nil, nil, nil)})
	if got != want {
		t.Error("safe gate at Parallelism=4 diverges from sequential")
	}
	if gotStats.Suppressed != wantStats.Suppressed || gotStats.Suppressed == 0 {
		t.Errorf("suppressed %d, want %d (nonzero)", gotStats.Suppressed, wantStats.Suppressed)
	}
	if reg.Counter(obs.EngineBatches).Value() == 0 {
		t.Error("engine.batches is zero: parallel path never engaged")
	}
}

// TestParallelObsMetrics checks the new parallel-round metrics appear for
// a big enough workload and stay silent for sequential runs.
func TestParallelObsMetrics(t *testing.T) {
	prog, freshDB := tcFixture(t, 60)
	reg := obs.NewRegistry()
	if _, _ = evalSnapshot(t, prog, freshDB(), engine.Options{Parallelism: 4, Instr: instr.New(reg, nil, nil, nil)}); reg.Counter(obs.EngineBatches).Value() == 0 {
		t.Fatal("engine.batches not incremented under Parallelism=4")
	}
	if reg.Histogram(obs.EngineWorkerBusy).Snapshot().Count == 0 {
		t.Error("engine.worker_busy not observed")
	}
	if reg.Histogram(obs.EngineMergeWait).Snapshot().Count == 0 {
		t.Error("engine.merge_wait not observed")
	}
	seqReg := obs.NewRegistry()
	_, _ = evalSnapshot(t, prog, freshDB(), engine.Options{Instr: instr.New(seqReg, nil, nil, nil)})
	if seqReg.Counter(obs.EngineBatches).Value() != 0 {
		t.Error("engine.batches incremented on a sequential run")
	}
}

// TestParallelSmallRoundFallback: a tiny program never crosses parMinWork,
// so parallel options must still work (and match) via the fallback.
func TestParallelSmallRoundFallback(t *testing.T) {
	prog := mustProgram(t, `
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- path(X, Y), edge(Y, Z).
	`)
	src := "edge(a, b).\nedge(b, c).\nedge(c, d).\n"
	want, _ := evalSnapshot(t, prog, mustFacts(t, src), engine.Options{})
	got, _ := evalSnapshot(t, prog, mustFacts(t, src), engine.Options{Parallelism: 8})
	if got != want {
		t.Error("small-round fallback diverges from sequential")
	}
}
