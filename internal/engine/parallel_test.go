package engine_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/obs"
	"contribmax/internal/obs/instr"
)

// tcFixture builds a transitive-closure workload large enough to fill
// many pipeline batches: a directed ring with chords over n nodes.
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
// derivation stream (as rendered strings, including tuple ids, HeadNew and
// HeadTuple).
func evalSnapshot(t *testing.T, prog *ast.Program, d *db.Database, opts engine.Options) (string, engine.Stats) {
	t.Helper()
	var sb strings.Builder
	opts.Listener = func(dv engine.Derivation) {
		fmt.Fprintf(&sb, "d %d %s/%d new=%t %v [", dv.RuleIndex, dv.Head.Rel.Name(), dv.Head.ID, dv.HeadNew, dv.HeadTuple)
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

// TestParallelByteIdentical pins the determinism contract directly at the
// engine API: relations (tuple ids included), Stats, and the derivation
// stream are byte-identical across Parallelism levels, pipelined or not.
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

// TestParallelStratifiedNegation exercises the pipeline across stratum
// boundaries with negation and built-ins in the mix.
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

// countGate counts calls and vetoes every other one: a stateful gate,
// which is legal at every Parallelism level because the fixpoint consults
// its gate from one goroutine (-race would catch a second one).
type countGate struct{ calls int }

func (g *countGate) ShouldFire(ruleIndex int, vars []db.Sym) bool {
	g.calls++
	return g.calls%2 == 0
}

// TestParallelUnsafeGateFallsBackSequential pins that a stateful gate sees
// the sequential call sequence at high Parallelism: identical snapshot,
// call count and suppression count.
func TestParallelUnsafeGateFallsBackSequential(t *testing.T) {
	prog, freshDB := tcFixture(t, 60)
	seqGate := &countGate{}
	want, wantStats := evalSnapshot(t, prog, freshDB(), engine.Options{Gate: seqGate})
	parGate := &countGate{}
	got, gotStats := evalSnapshot(t, prog, freshDB(), engine.Options{Gate: parGate, Parallelism: 8})
	if got != want {
		t.Error("stateful gate at Parallelism=8 diverges from sequential")
	}
	if parGate.calls != seqGate.calls {
		t.Errorf("gate calls %d, want %d", parGate.calls, seqGate.calls)
	}
	if gotStats.Suppressed != wantStats.Suppressed || gotStats.Suppressed == 0 {
		t.Errorf("suppressed %d, want %d (nonzero)", gotStats.Suppressed, wantStats.Suppressed)
	}
}

// hashEveryOther is an order-independent gate: a pure function of the
// bound variables, like magic.HashGate.
type hashEveryOther struct{}

func (hashEveryOther) ShouldFire(ruleIndex int, vars []db.Sym) bool {
	h := uint64(ruleIndex+1) * 0x9e3779b97f4a7c15
	for _, v := range vars {
		h = (h ^ uint64(uint32(v))) * 0x100000001b3
	}
	return h&1 == 0
}

// TestParallelSafeGateRunsParallel verifies a hash gate under the pipeline:
// identical snapshot and suppression count, and the pipeline engaged.
func TestParallelSafeGateRunsParallel(t *testing.T) {
	prog, freshDB := tcFixture(t, 60)
	want, wantStats := evalSnapshot(t, prog, freshDB(), engine.Options{Gate: hashEveryOther{}})
	reg := obs.NewRegistry()
	got, gotStats := evalSnapshot(t, prog, freshDB(), engine.Options{Gate: hashEveryOther{}, Parallelism: 4, Instr: instr.New(reg, nil, nil, nil)})
	if got != want {
		t.Error("hash gate at Parallelism=4 diverges from sequential")
	}
	if gotStats.Suppressed != wantStats.Suppressed || gotStats.Suppressed == 0 {
		t.Errorf("suppressed %d, want %d (nonzero)", gotStats.Suppressed, wantStats.Suppressed)
	}
	if reg.Counter(obs.EnginePipeBatches).Value() == 0 {
		t.Error("engine.pipe_batches is zero: the pipeline never engaged")
	}
}

// TestParallelObsMetrics checks the per-run pipeline record: one batch
// count and one sample of each wait at Parallelism=4, nothing on a
// sequential run or a run without a listener. The run's context can be
// cancelled, so its fixpoint drains at every round boundary: one batch
// per round at least.
func TestParallelObsMetrics(t *testing.T) {
	prog, freshDB := tcFixture(t, 60)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := obs.NewRegistry()
	_, stats := evalSnapshot(t, prog, freshDB(), engine.Options{Parallelism: 4, Context: ctx, Instr: instr.New(reg, nil, nil, nil)})
	// One batch per pipeBatchLen derivations at least, plus a drain per
	// round boundary.
	if got, min := reg.Counter(obs.EnginePipeBatches).Value(), int64(stats.Rounds); got < min {
		t.Errorf("engine.pipe_batches = %d, want >= %d (one drain per round)", got, min)
	}
	for _, name := range []string{obs.EngineListenerWait, obs.EngineFixpointWait} {
		if n := reg.Histogram(name).Snapshot().Count; n != 1 {
			t.Errorf("%s observed %d times, want once per pipelined run", name, n)
		}
	}
	for _, opts := range []engine.Options{{}, {Parallelism: 1}} {
		seqReg := obs.NewRegistry()
		opts.Instr = instr.New(seqReg, nil, nil, nil)
		_, _ = evalSnapshot(t, prog, freshDB(), opts)
		if seqReg.Counter(obs.EnginePipeBatches).Value() != 0 || seqReg.Histogram(obs.EngineFixpointWait).Snapshot().Count != 0 {
			t.Errorf("Parallelism=%d: pipeline metrics recorded on a sequential run", opts.Parallelism)
		}
	}
	noListener := obs.NewRegistry()
	eng, err := engine.New(prog, freshDB())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(engine.Options{Parallelism: 4, Instr: instr.New(noListener, nil, nil, nil)}); err != nil {
		t.Fatal(err)
	}
	if noListener.Counter(obs.EnginePipeBatches).Value() != 0 {
		t.Error("pipeline metrics recorded on a run without a listener")
	}
}

// TestParallelObsMetricsNoDrain: a pipelined run whose context cannot be
// cancelled (none, or context.Background) never drains, so it hands over
// exactly one batch per PipeBatchLen derivations, the last one partial,
// and its stream and stats still match sequential evaluation.
func TestParallelObsMetricsNoDrain(t *testing.T) {
	prog, freshDB := tcFixture(t, 60)
	want, wantStats := evalSnapshot(t, prog, freshDB(), engine.Options{})
	for name, ctx := range map[string]context.Context{"nil": nil, "background": context.Background()} {
		reg := obs.NewRegistry()
		got, stats := evalSnapshot(t, prog, freshDB(), engine.Options{Parallelism: 4, Context: ctx, Instr: instr.New(reg, nil, nil, nil)})
		if got != want || stats.Instantiations != wantStats.Instantiations || stats.Rounds != wantStats.Rounds {
			t.Errorf("%s context: pipelined run diverges from sequential", name)
		}
		batches := (stats.Instantiations + engine.PipeBatchLen - 1) / engine.PipeBatchLen
		if batches <= 1 || int64(stats.Rounds) <= batches {
			t.Fatalf("fixture fires %d instantiations in %d rounds; want several batches, fewer than rounds", stats.Instantiations, stats.Rounds)
		}
		if n := reg.Counter(obs.EnginePipeBatches).Value(); n != batches {
			t.Errorf("%s context: engine.pipe_batches = %d, want %d (one per %d derivations, no drains)", name, n, batches, engine.PipeBatchLen)
		}
	}
}

// TestParallelSmallRoundFallback: a tiny program fills less than one batch
// per round, so under a context that can be cancelled every batch is a
// round-boundary drain, and without one the whole run is the final
// partial batch; the stream must match either way.
func TestParallelSmallRoundFallback(t *testing.T) {
	prog := mustProgram(t, `
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- path(X, Y), edge(Y, Z).
	`)
	src := "edge(a, b).\nedge(b, c).\nedge(c, d).\n"
	want, _ := evalSnapshot(t, prog, mustFacts(t, src), engine.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []context.Context{ctx, nil} {
		got, _ := evalSnapshot(t, prog, mustFacts(t, src), engine.Options{Parallelism: 8, Context: c})
		if got != want {
			t.Errorf("small-round pipeline diverges from sequential (cancellable context: %t)", c != nil)
		}
	}
}

// checkNoLeak fails t if goroutines started since before (a count from
// runtime.NumGoroutine) are still running. An exited goroutine can linger
// in the count for a moment after the channel operation that let its
// waiter go, so the count is polled briefly.
func checkNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlived Run", runtime.NumGoroutine()-before)
		}
		time.Sleep(time.Millisecond)
	}
}

// runRecovering runs eng with opts and returns the value Run panicked
// with, nil if it returned.
func runRecovering(eng *engine.Engine, opts engine.Options) (pv any) {
	defer func() { pv = recover() }()
	_, _ = eng.Run(opts)
	return nil
}

// TestPipelineListenerPanic: a listener that panics mid-run (well past the
// first batch, with the fixpoint still running) has its panic raised by Run
// on the caller, after the fixpoint goroutine has stopped.
func TestPipelineListenerPanic(t *testing.T) {
	prog, freshDB := tcFixture(t, 150)
	// The fixpoint runs at most the pipeline's six 2048-derivation batches
	// ahead of the listener, so it is still running at either failure.
	if _, stats, _ := streamRun(t, prog, freshDB(), engine.Options{}, nil); stats.Instantiations < 7000+6*2048+5000 {
		t.Fatalf("fixture fires %d instantiations, too few to fail mid-run", stats.Instantiations)
	}
	before := runtime.NumGoroutine()
	eng, err := engine.New(prog, freshDB())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("listener boom")
	n := 0
	pv := runRecovering(eng, engine.Options{Parallelism: 2, Listener: func(engine.Derivation) {
		if n++; n == 5000 {
			panic(boom)
		}
	}})
	if pv != boom {
		t.Fatalf("Run panicked with %v, want the listener's panic", pv)
	}
	checkNoLeak(t, before)
}

// panicGate panics on its n-th call: a failure on the fixpoint goroutine.
type panicGate struct{ calls, n int }

func (g *panicGate) ShouldFire(int, []db.Sym) bool {
	if g.calls++; g.calls == g.n {
		panic("gate boom")
	}
	return true
}

// TestPipelineGatePanic: a gate that panics on the fixpoint goroutine has
// its panic raised by Run on the caller, after the listener has stopped,
// and the listener saw only derivations fired before the panic.
func TestPipelineGatePanic(t *testing.T) {
	prog, freshDB := tcFixture(t, 150)
	before := runtime.NumGoroutine()
	eng, err := engine.New(prog, freshDB())
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	pv := runRecovering(eng, engine.Options{Parallelism: 2, Gate: &panicGate{n: 7000}, Listener: func(engine.Derivation) { seen++ }})
	if pv != "gate boom" {
		t.Fatalf("Run panicked with %v, want the gate's panic", pv)
	}
	if seen >= 7000 {
		t.Errorf("listener saw %d derivations, want fewer than the gate's 7000 calls", seen)
	}
	checkNoLeak(t, before)
}

// streamRun evaluates prog over d and returns the rendered derivation
// stream (HeadTuple included), the Stats with Elapsed zeroed, and Run's
// error. after, when non-nil, runs after each derivation is rendered.
func streamRun(t *testing.T, prog *ast.Program, d *db.Database, opts engine.Options, after func()) (string, engine.Stats, error) {
	t.Helper()
	eng, err := engine.New(prog, d)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	opts.Listener = func(dv engine.Derivation) {
		fmt.Fprintf(&sb, "%d %d %t %v [", dv.RuleIndex, dv.Head.ID, dv.HeadNew, dv.HeadTuple)
		for _, b := range dv.Body {
			fmt.Fprintf(&sb, " %s/%d", b.Rel.Name(), b.ID)
		}
		sb.WriteString(" ]\n")
		if after != nil {
			after()
		}
	}
	stats, err := eng.Run(opts)
	stats.Elapsed = 0
	return sb.String(), stats, err
}

// TestPipelineCancelMidRun: a listener that cancels the context mid-round
// stops a pipelined run at the round boundary where a sequential run
// stops, with the same error, stream and stats; a MaxRounds cutoff
// likewise. No goroutine outlives either.
func TestPipelineCancelMidRun(t *testing.T) {
	prog, freshDB := tcFixture(t, 60)
	cancelled := func(par int) (string, engine.Stats, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		seen := 0
		return streamRun(t, prog, freshDB(), engine.Options{Context: ctx, Parallelism: par}, func() {
			if seen++; seen == 3000 {
				cancel()
			}
		})
	}
	capped := func(par int) (string, engine.Stats, error) {
		return streamRun(t, prog, freshDB(), engine.Options{MaxRounds: 3, Parallelism: par}, nil)
	}
	for name, run := range map[string]func(int) (string, engine.Stats, error){"cancel": cancelled, "maxrounds": capped} {
		want, wantStats, wantErr := run(0)
		if wantErr == nil {
			t.Fatalf("%s: sequential run did not stop early", name)
		}
		for _, par := range []int{2, 4} {
			before := runtime.NumGoroutine()
			got, gotStats, gotErr := run(par)
			checkNoLeak(t, before)
			if got != want {
				t.Errorf("%s at Parallelism=%d: stream diverges from sequential", name, par)
			}
			if fmt.Sprint(gotStats) != fmt.Sprint(wantStats) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("%s at Parallelism=%d: stats %+v, err %v; want %+v, %v", name, par, gotStats, gotErr, wantStats, wantErr)
			}
		}
	}
}

// TestPipelinePrefilledDerivedRelation: when a relation the program
// derives into already holds tuples, a run at Parallelism=2 delivers
// in-line — no pipeline record — so a listener may read any relation's
// tuples (here the head's and the body's, which -race would flag if the
// fixpoint were appending to them from another goroutine), and the output
// is identical.
func TestPipelinePrefilledDerivedRelation(t *testing.T) {
	prog, _ := tcFixture(t, 0)
	const n = 150 // rounds of several batches, so a pipeline would overlap
	var facts strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&facts, "edge(n%d, n%d).\nedge(n%d, n%d).\n", i, (i+1)%n, i, (i+7)%n)
	}
	facts.WriteString("edge(src, n0).\npath(n3, n9).\npath(src, n5).\n")
	run := func(par int) string {
		eng, err := engine.New(prog, mustFacts(t, facts.String()))
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		var sb strings.Builder
		stats, err := eng.Run(engine.Options{Parallelism: par, Instr: instr.New(reg, nil, nil, nil), Listener: func(dv engine.Derivation) {
			fmt.Fprintf(&sb, "%d %v %t [", dv.RuleIndex, dv.Head.Rel.Tuple(dv.Head.ID), dv.HeadNew)
			for _, b := range dv.Body {
				fmt.Fprintf(&sb, " %v", b.Rel.Tuple(b.ID))
			}
			sb.WriteString(" ]\n")
		}})
		if err != nil {
			t.Fatal(err)
		}
		if reg.Counter(obs.EnginePipeBatches).Value() != 0 {
			t.Errorf("Parallelism=%d pipelined a run over a prefilled derived relation", par)
		}
		stats.Elapsed = 0
		fmt.Fprintf(&sb, "%+v\n", stats)
		return sb.String()
	}
	if got, want := run(2), run(0); got != want {
		t.Error("Parallelism=2 over a prefilled derived relation diverges from sequential")
	}
}
