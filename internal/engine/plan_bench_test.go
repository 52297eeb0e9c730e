package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/obs/instr"
	"contribmax/internal/parser"
	"contribmax/internal/prof"
)

// guardedWorkload builds the join shape the planner's early checks target:
// a selective guard whose variables are bound before the expensive second
// join. lt(X, c50) depends only on X, bound at step 0 by e — the planned
// engine rejects half the e tuples before probing f, while the
// written-order engine materializes every e ⋈ f binding and filters at the
// end. Constants are zero-padded so the built-in's lexicographic fallback
// orders them like numbers.
func guardedWorkload(tb testing.TB) (*ast.Program, []ast.Atom) {
	tb.Helper()
	prog, err := parser.ParseProgram(`q(X, Z) :- e(X, Y), f(Y, Z), lt(X, c50).`)
	if err != nil {
		tb.Fatalf("parse program: %v", err)
	}
	var sb strings.Builder
	for i := 0; i < 100; i++ {
		for j := 0; j < 20; j++ {
			fmt.Fprintf(&sb, "e(c%02d, m%02d).\n", i, j)
		}
	}
	for j := 0; j < 20; j++ {
		for k := 0; k < 50; k++ {
			fmt.Fprintf(&sb, "f(m%02d, n%02d).\n", j, k)
		}
	}
	facts, err := parser.ParseFacts(sb.String())
	if err != nil {
		tb.Fatalf("parse facts: %v", err)
	}
	return prog, facts
}

func guardedDB(tb testing.TB, facts []ast.Atom) *db.Database {
	tb.Helper()
	d := db.NewDatabase()
	for _, f := range facts {
		if _, _, _, err := d.InsertAtom(f); err != nil {
			tb.Fatalf("insert %s: %v", f.String(), err)
		}
	}
	return d
}

// TestGuardedFixpointEquivalent pins the benchmark workload itself: the
// planned and written-order evaluations derive the same 2 500 q facts, and
// only the planned one cuts bindings at the guard's join step (otherwise
// the benchmark would compare one path with itself).
func TestGuardedFixpointEquivalent(t *testing.T) {
	prog, facts := guardedWorkload(t)
	derive := func(opts engine.Options) ([]string, int64) {
		d := guardedDB(t, facts)
		eng, err := engine.New(prog, d)
		if err != nil {
			t.Fatal(err)
		}
		pf := prof.New()
		opts.Instr = instr.New(nil, nil, nil, pf)
		if _, err := eng.Run(opts); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, a := range d.Facts("q") {
			out = append(out, a.String())
		}
		return out, pf.Report().EarlyVetoes
	}
	planned, plannedVetoes := derive(engine.Options{})
	written, writtenVetoes := derive(engine.Options{DisableJoinReorder: true})
	if len(planned) != 50*50 {
		t.Errorf("derived %d q facts, want %d", len(planned), 50*50)
	}
	if fmt.Sprint(planned) != fmt.Sprint(written) {
		t.Errorf("planned and written-order engines diverged: %d vs %d facts",
			len(planned), len(written))
	}
	if plannedVetoes == 0 || writtenVetoes != 0 {
		t.Errorf("early-check vetoes: planned %d, written-order %d; want > 0 and 0",
			plannedVetoes, writtenVetoes)
	}
}

func benchGuardedFixpoint(b *testing.B, opts engine.Options) {
	prog, facts := guardedWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := guardedDB(b, facts)
		b.StartTimer()
		eng, err := engine.New(prog, d)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFixpointGuardedPlanned measures the early-check win: the guard
// prunes at join step 0 instead of after the full e ⋈ f product.
func BenchmarkFixpointGuardedPlanned(b *testing.B) { benchGuardedFixpoint(b, engine.Options{}) }

// BenchmarkFixpointGuardedWritten is the written-order baseline: checks
// evaluated only on complete instantiations.
func BenchmarkFixpointGuardedWritten(b *testing.B) {
	benchGuardedFixpoint(b, engine.Options{DisableJoinReorder: true})
}
