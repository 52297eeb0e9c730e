package wdgraph

// Differential and invariant tests for the CSR adjacency layout, plus the
// builder micro-benchmarks.

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/parser"
	"contribmax/internal/workload"
)

// flatEdge is the old-layout view of one directed edge, reconstructed from
// the CSR accessors for the differential comparison.
type flatEdge struct {
	from, to NodeID
	w        float64
}

func sortEdges(es []flatEdge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].from != es[j].from {
			return es[i].from < es[j].from
		}
		if es[i].to != es[j].to {
			return es[i].to < es[j].to
		}
		return es[i].w < es[j].w
	})
}

func buildFrom(t *testing.T, progSrc string, d *db.Database) *Graph {
	t.Helper()
	prog, err := parser.ParseProgram(progSrc)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := Build(prog, d, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func dbFromFacts(t *testing.T, facts string) *db.Database {
	t.Helper()
	fs, err := parser.ParseFacts(facts)
	if err != nil {
		t.Fatal(err)
	}
	d := db.NewDatabase()
	for _, f := range fs {
		d.MustInsertAtom(f)
	}
	return d
}

// TestCSRDifferentialAdjacency rebuilds the pre-CSR adjacency view (one
// edge list per direction) from InEdges/OutEdges and checks that the two
// directions describe the same edge multiset and that degrees and NumEdges
// agree with the views.
func TestCSRDifferentialAdjacency(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	graphs := map[string]*Graph{
		"tc": buildFrom(t, `
			1.0 r1: tc(X, Y) :- edge(X, Y).
			0.8 r2: tc(X, Y) :- tc(X, Z), tc(Z, Y).
		`, workload.RandomGraphM(20, 60, rng)),
		"diamond": buildFrom(t, `
			0.5 q1: p(X) :- e(X, Y).
			0.7 q2: p(X) :- f(X, Y).
			0.9 q3: top(X) :- p(X), e(X, X).
		`, dbFromFacts(t, `e(a, b). e(a, a). f(a, z). f(b, z).`)),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			n := g.NumNodes()
			var fromOut, fromIn []flatEdge
			outSum, inSum := 0, 0
			for v := 0; v < n; v++ {
				id := NodeID(v)
				outs := g.OutEdges(id)
				if len(outs) != g.OutDegree(id) {
					t.Fatalf("node %d: OutEdges len %d != OutDegree %d", v, len(outs), g.OutDegree(id))
				}
				for _, to := range outs {
					fromOut = append(fromOut, flatEdge{from: id, to: to, w: g.Weight(id)})
				}
				outSum += len(outs)
				ins := g.InEdges(id)
				if len(ins) != g.InDegree(id) {
					t.Fatalf("node %d: InEdges len %d != InDegree %d", v, len(ins), g.InDegree(id))
				}
				for _, from := range ins {
					fromIn = append(fromIn, flatEdge{from: from, to: id, w: g.Weight(from)})
				}
				inSum += len(ins)
			}
			if outSum != g.NumEdges() || inSum != g.NumEdges() {
				t.Fatalf("degree sums out=%d in=%d, NumEdges=%d", outSum, inSum, g.NumEdges())
			}
			sortEdges(fromOut)
			sortEdges(fromIn)
			for i := range fromOut {
				if fromOut[i] != fromIn[i] {
					t.Fatalf("edge %d differs between directions: out=%+v in=%+v", i, fromOut[i], fromIn[i])
				}
			}
		})
	}
}

// TestBuilderPanicsAfterFinalize pins the builder lifecycle: once Graph()
// lays out the CSR arrays, further mutation must fail loudly instead of
// corrupting the layout.
func TestBuilderPanicsAfterFinalize(t *testing.T) {
	prog, err := parser.ParseProgram(`p(X) :- e(X, X).`)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(IdentityProjection(prog))
	b.AddFact("e", db.Tuple{1, 1}, true)
	_ = b.Graph()
	defer func() {
		if recover() == nil {
			t.Fatal("AddFact after Graph() did not panic")
		}
	}()
	b.AddFact("e", db.Tuple{2, 2}, true)
}

// captureDerivations evaluates a mid-size TC instance once and returns the
// derivation stream, so builder benchmarks replay construction without
// re-paying evaluation.
func captureDerivations(b *testing.B) (*ast.Program, *db.Database, []engine.Derivation) {
	b.Helper()
	rng := rand.New(rand.NewPCG(1, 2))
	d := workload.RingChordGraph(80, 40, rng)
	prog, err := parser.ParseProgram(`
		1.0 r1: tc(X, Y) :- edge(X, Y).
		0.8 r2: tc(X, Y) :- tc(X, Z), tc(Z, Y).
	`)
	if err != nil {
		b.Fatal(err)
	}
	scratch := d.CloneSchema()
	if rel, ok := d.Lookup("edge"); ok {
		scratch.Attach(rel)
	}
	eng, err := engine.New(prog, scratch)
	if err != nil {
		b.Fatal(err)
	}
	var derivs []engine.Derivation
	_, err = eng.Run(engine.Options{Listener: func(dv engine.Derivation) {
		// Body and HeadTuple are valid only for the call.
		dv.Body = append([]engine.FactRef(nil), dv.Body...)
		dv.HeadTuple = slices.Clone(dv.HeadTuple)
		derivs = append(derivs, dv)
	}})
	if err != nil {
		b.Fatal(err)
	}
	return prog, d, derivs
}

// BenchmarkBuilderReplay measures graph construction alone (fact memo,
// pointer-free node table, edge log, CSR finalize) on a captured
// derivation stream, without the cost of evaluation.
func BenchmarkBuilderReplay(b *testing.B) {
	prog, d, derivs := captureDerivations(b)
	proj := IdentityProjection(prog)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := NewBuilderSized(proj, len(derivs), len(derivs))
		bld.PreloadEDB(prog, d)
		l := bld.Listener()
		for _, dv := range derivs {
			l(dv)
		}
		g := bld.Graph()
		if g.NumNodes() == 0 {
			b.Fatal("empty graph")
		}
	}
}
