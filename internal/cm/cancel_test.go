package cm_test

import (
	"context"
	"errors"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"contribmax/internal/cm"
	"contribmax/internal/im"
	"contribmax/internal/obs"
	"contribmax/internal/workload"
)

func cancelInstance(t *testing.T) cm.Input {
	t.Helper()
	prog := workload.TCProgram(1.0, 0.8)
	rng := rand.New(rand.NewPCG(31, 41))
	d := workload.RandomGraphM(12, 30, rng)
	derived := evalFacts(t, prog, d, "tc")
	if len(derived) < 6 {
		t.Fatal("sparse instance")
	}
	return cm.Input{Program: prog, DB: d, T2: derived[:6], K: 3}
}

// TestPreCanceledContext: a context canceled before the solve starts must
// abort every algorithm with context.Canceled instead of running to
// completion.
func TestPreCanceledContext(t *testing.T) {
	in := cancelInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, al := range algos {
		for _, par := range []int{0, 4} {
			res, err := al.run(in, cm.Options{
				Theta:       im.ThetaSpec{Explicit: 200},
				Rand:        rand.New(rand.NewPCG(5, 5)),
				Parallelism: par,
				Context:     ctx,
			})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s parallelism=%d: err = %v (res = %v), want context.Canceled",
					al.name, par, err, res)
			}
		}
	}
}

// TestMidFlightCancellation: a deadline expiring during RR generation must
// surface promptly as context.DeadlineExceeded — the RR workers re-check
// the context per slot, so a heavy solve cannot overshoot by more than one
// subgraph construction, and an adaptive solve stops at the first batch
// that sees it instead of running further IMM rounds.
func TestMidFlightCancellation(t *testing.T) {
	in := cancelInstance(t)
	check := func(t *testing.T, name string, par int, run func(cm.Input, cm.Options) (*cm.Result, error), opts cm.Options) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		opts.Rand = rand.New(rand.NewPCG(5, 5))
		opts.Parallelism = par
		opts.Context = ctx
		start := time.Now()
		_, err := run(in, opts)
		elapsed := time.Since(start)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s parallelism=%d: err = %v, want context.DeadlineExceeded", name, par, err)
		}
		if elapsed > 5*time.Second {
			t.Errorf("%s parallelism=%d: cancellation took %v, want prompt return", name, par, elapsed)
		}
	}
	for _, par := range []int{0, 4} {
		// MagicCM with a large θ: thousands of per-tuple subgraph builds,
		// far beyond the deadline.
		check(t, "MagicCM", par, cm.MagicCM, cm.Options{Theta: im.ThetaSpec{Explicit: 500_000}})
		// Adaptive solves whose IMM rounds ask for hundreds of thousands of
		// RR sets.
		adaptive := cm.Options{Adaptive: true, Theta: im.ThetaSpec{Epsilon: 0.01, MaxAuto: 500_000}}
		check(t, "adaptive NaiveCM", par, cm.NaiveCM, adaptive)
		check(t, "adaptive MagicSCM", par, cm.MagicSampledCM, adaptive)
	}
}

// TestSolveMetricsAndTrace smoke-tests the observability plumbing end to
// end: a solve with a registry and trace attached must populate the core
// counters at every layer and produce a phase tree with the documented
// span names.
func TestSolveMetricsAndTrace(t *testing.T) {
	in := cancelInstance(t)
	reg := obs.NewRegistry()
	root := obs.StartSpan("test")
	res, err := cm.NaiveCM(in, cm.Options{
		Theta: im.ThetaSpec{Explicit: 100},
		Rand:  rand.New(rand.NewPCG(5, 5)),
		Obs:   reg,
		Trace: root,
	})
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	for _, name := range []string{obs.CMSolves, obs.GraphBuilds, obs.EngineRuns, obs.EngineRounds, obs.RRSets} {
		if v := reg.Counter(name).Value(); v <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, v)
		}
	}
	if got := reg.Counter(obs.RRSets).Value(); got != int64(res.Stats.NumRR) {
		t.Errorf("rr.sets = %d, stats.NumRR = %d", got, res.Stats.NumRR)
	}
	if h := reg.Histogram(obs.CMSolveNs).Snapshot(); h.Count != 1 {
		t.Errorf("cm.solve_ns count = %d, want 1", h.Count)
	}

	algo := root.Find("NaiveCM")
	if algo == nil {
		t.Fatal("no NaiveCM span in trace")
	}
	for _, phase := range []string{"prepare", "build", "rrgen", "select"} {
		if algo.Find(phase) == nil {
			t.Errorf("phase span %q missing", phase)
		}
	}
	if rr, ok := algo.Find("rrgen").Attr("rr"); !ok || rr != int64(res.Stats.NumRR) {
		t.Errorf("rrgen span rr attr = %d (ok=%v), want %d", rr, ok, res.Stats.NumRR)
	}
	var sb strings.Builder
	root.Render(&sb)
	for _, want := range []string{"NaiveCM", "build", "select"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("rendered tree missing %q:\n%s", want, sb.String())
		}
	}
}
