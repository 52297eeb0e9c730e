package contribmax_test

// The benchmark harness regenerates every figure of the paper's evaluation
// (Section V). One Benchmark per figure/dataset pair runs the matching
// experiment driver at Quick scale and reports the figure's y-values as
// custom benchmark metrics; `cmd/cmbench -full` runs the laptop-scale
// sweep whose outputs are recorded in EXPERIMENTS.md.
//
// Micro-benchmarks for the substrate (evaluation, graph construction, RR
// generation, transformation, greedy selection) follow.

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"contribmax"
	"contribmax/internal/cm"
	"contribmax/internal/engine"
	"contribmax/internal/experiments"
	"contribmax/internal/im"
	"contribmax/internal/magic"
	"contribmax/internal/obs"
	"contribmax/internal/obs/instr"
	"contribmax/internal/obs/journal"
	"contribmax/internal/prof"
	"contribmax/internal/wdgraph"
	"contribmax/internal/workload"
)

// reportSeries attaches the last row of a figure table as bench metrics.
func reportSeries(b *testing.B, t *experiments.Table, unit string) {
	b.Helper()
	if len(t.XLabels) == 0 {
		b.Fatal("empty table")
	}
	last := len(t.XLabels) - 1
	for _, s := range t.Series {
		v := t.Value(last, s)
		if v == v { // skip NaN (infeasible cells)
			b.ReportMetric(v, s+"_"+unit)
		}
	}
}

func benchFig23(b *testing.B, ds experiments.Dataset) {
	for i := 0; i < b.N; i++ {
		fig2, fig3, err := experiments.FigureVaryingDataSize(ds, experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig2, "graphsize")
			reportSeries(b, fig3, "msPerRR")
		}
	}
}

func BenchmarkFig2And3TC(b *testing.B)      { benchFig23(b, experiments.TC) }
func BenchmarkFig2And3Explain(b *testing.B) { benchFig23(b, experiments.Explain) }
func BenchmarkFig2And3IRIS(b *testing.B)    { benchFig23(b, experiments.IRIS) }
func BenchmarkFig2And3AMIE(b *testing.B)    { benchFig23(b, experiments.AMIE) }

func benchFig45(b *testing.B, ds experiments.Dataset) {
	for i := 0; i < b.N; i++ {
		fig4, fig5, err := experiments.FigureVaryingRRSets(ds, experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, fig4, "graphsize")
			reportSeries(b, fig5, "msTotal")
		}
	}
}

func BenchmarkFig4And5TC(b *testing.B)      { benchFig45(b, experiments.TC) }
func BenchmarkFig4And5Explain(b *testing.B) { benchFig45(b, experiments.Explain) }
func BenchmarkFig4And5IRIS(b *testing.B)    { benchFig45(b, experiments.IRIS) }
func BenchmarkFig4And5AMIE(b *testing.B)    { benchFig45(b, experiments.AMIE) }

func BenchmarkFig7a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure7a(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, t, "contribution")
		}
	}
}

func BenchmarkFig7b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure7b(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, t, "contribution")
		}
	}
}

// --- substrate micro-benchmarks ---

// benchWorkload builds a mid-size TC instance shared by several benches.
func benchTCInput(b *testing.B) contribmax.Input {
	b.Helper()
	rng := rand.New(rand.NewPCG(1, 2))
	d := workload.RingChordGraph(60, 30, rng)
	prog := workload.TCProgram3(0.61, 0.44, 0.22)
	// Derive targets once.
	scratch := d.CloneSchema()
	if rel, ok := d.Lookup("edge"); ok {
		scratch.Attach(rel)
	}
	db2 := contribmax.Database{Database: scratch}
	if _, err := contribmax.Eval(prog, db2); err != nil {
		b.Fatal(err)
	}
	derived := db2.Facts("tc")
	if len(derived) < 20 {
		b.Fatal("tc too small")
	}
	targets := derived[:20]
	return contribmax.Input{Program: prog, DB: d, T2: targets, K: 5}
}

func BenchmarkSemiNaiveEvalTC(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	d := workload.RingChordGraph(100, 50, rng)
	prog := workload.TCProgram(1.0, 0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch := d.CloneSchema()
		rel, _ := d.Lookup("edge")
		scratch.Attach(rel)
		if _, err := contribmax.Eval(prog, contribmax.Database{Database: scratch}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullGraphBuild times the build phase of NaiveCM: one
// wdgraph.Build (edb preload, identity projection) over a scratch
// database, at Parallelism 1 (sequential) and 2 (the fixpoint on a helper
// goroutine, pipelined beside the graph builder). It runs on an
// Explain-160 instance, the shape of perfbench's naive-explain, and on the
// AMIE trade KB (23 rules, wide joins). Both levels build the same graph:
// the benchmark asserts equal node and edge counts, so the p1/p2 ratio
// compares equal work.
func BenchmarkFullGraphBuild(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, w := range []struct {
		name string
		w    workload.Workload
	}{
		{"explain160", workload.Explain(160, 3, rng)},
		{"trade", workload.AMIE(workload.AMIEDBParams{Countries: 26, People: 130}, rng)},
	} {
		nodes, edges := -1, -1
		for _, par := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/p%d", w.name, par), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					g, _, err := wdgraph.Build(w.w.Program, w.w.DB.Scratch(w.w.Program.EDBs()), wdgraph.BuildConfig{Parallelism: par})
					if err != nil {
						b.Fatal(err)
					}
					if nodes < 0 {
						nodes, edges = g.NumNodes(), g.NumEdges()
					} else if g.NumNodes() != nodes || g.NumEdges() != edges {
						b.Fatalf("Parallelism=%d built %d nodes, %d edges; want %d, %d", par, g.NumNodes(), g.NumEdges(), nodes, edges)
					}
				}
				b.ReportMetric(float64(nodes), "nodes")
				b.ReportMetric(float64(edges), "edges")
			})
		}
	}
}

func BenchmarkWDGraphBuild(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	d := workload.RingChordGraph(80, 40, rng)
	prog := workload.TCProgram(1.0, 0.8)
	db := contribmax.Database{Database: d}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := contribmax.BuildWDGraph(prog, db)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(g.Size()), "graphsize")
		}
	}
}

func BenchmarkMagicTransform(b *testing.B) {
	prog := workload.AMIEProgram()
	target, err := contribmax.ParseAtom("dealsWith(country1, country2)")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := magic.Transform(prog, []contribmax.Atom{target}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchAlgo(b *testing.B, run func(contribmax.Input, contribmax.Options) (*contribmax.Result, error)) {
	in := benchTCInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := contribmax.Options{
			Theta: contribmax.ThetaSpec{Explicit: 10},
			Rand:  rand.New(rand.NewPCG(uint64(i), 7)),
		}
		if _, err := run(in, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNaiveCM(b *testing.B)        { benchAlgo(b, contribmax.NaiveCM) }
func BenchmarkMagicCM(b *testing.B)        { benchAlgo(b, contribmax.MagicCM) }
func BenchmarkMagicSampledCM(b *testing.B) { benchAlgo(b, contribmax.MagicSampledCM) }
func BenchmarkMagicGroupedCM(b *testing.B) { benchAlgo(b, contribmax.MagicGroupedCM) }

// BenchmarkJoinReorderAblation measures the bound-first join ordering
// (DESIGN.md ablation): rules whose selective atoms come late are the
// interesting case.
func BenchmarkJoinReorderAblation(b *testing.B) {
	// Rule a2 places an unbound scan (marked(Z)) before the selective
	// indexed atom (edge(Y, Z)); left-to-right evaluation pays
	// |marked| × |delta| there, while the bound-first plan flips them.
	prog, err := contribmax.ParseProgram(`
		0.9 a1: two(X, Z) :- hub(W), edge(X, Y), edge(Y, Z).
		0.8 a2: tri(X, Z) :- edge(X, Y), marked(Z), edge(Y, Z).
	`)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	d := workload.RandomGraphM(300, 2400, rng)
	d.MustInsertAtom(contribmax.NewAtom("hub", contribmax.C("h")))
	for i := 0; i < 200; i++ {
		d.MustInsertAtom(contribmax.NewAtom("marked", contribmax.C(fmt.Sprintf("n%d", i))))
	}
	run := func(b *testing.B, disable bool) {
		for i := 0; i < b.N; i++ {
			scratch := d.CloneSchema()
			for _, p := range prog.EDBs() {
				if rel, ok := d.Lookup(p); ok {
					scratch.Attach(rel)
				}
			}
			eng, err := engine.New(prog, scratch)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Run(engine.Options{DisableJoinReorder: disable}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("reordered", func(b *testing.B) { run(b, false) })
	b.Run("leftToRight", func(b *testing.B) { run(b, true) })
}

func BenchmarkGreedyCoverage(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	coll := im.NewRRCollection(2000)
	for i := 0; i < 5000; i++ {
		var set []im.CandidateID
		for j := 0; j < 20; j++ {
			set = append(set, im.CandidateID(rng.IntN(2000)))
		}
		coll.Add(set)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := im.Greedy(coll, 10)
		if res.Covered == 0 {
			b.Fatal("no coverage")
		}
	}
}

func BenchmarkEstimatorContribution(b *testing.B) {
	in := benchTCInput(b)
	est, err := cm.NewEstimator(in)
	if err != nil {
		b.Fatal(err)
	}
	seeds := contribmax.Database{Database: in.DB}.Facts("edge")[:3]
	rng := rand.New(rand.NewPCG(5, 6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Contribution(seeds, 100, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRISvsGreedyMC quantifies why the paper builds on RIS rather than
// the original greedy framework: same (deliberately small) instance, same
// guarantee, very different cost.
func BenchmarkRISvsGreedyMC(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	d := workload.RingChordGraph(20, 10, rng)
	prog := workload.TCProgram3(0.61, 0.44, 0.22)
	scratch := d.CloneSchema()
	if rel, ok := d.Lookup("edge"); ok {
		scratch.Attach(rel)
	}
	db2 := contribmax.Database{Database: scratch}
	if _, err := contribmax.Eval(prog, db2); err != nil {
		b.Fatal(err)
	}
	in := contribmax.Input{Program: prog, DB: d, T2: db2.Facts("tc")[:10], K: 3}
	b.Run("NaiveCM_RIS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := contribmax.NaiveCM(in, contribmax.Options{
				Theta: contribmax.ThetaSpec{Explicit: 50},
				Rand:  rand.New(rand.NewPCG(uint64(i), 3)),
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("GreedyMC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := contribmax.GreedyMCCM(in, contribmax.GreedyMCOptions{
				Simulations: 50,
				Rand:        rand.New(rand.NewPCG(uint64(i), 3)),
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSIPSAblation compares the two sideways-information-passing
// strategies on a per-target Magic^S construction over the AMIE program,
// whose multi-atom rule bodies give the strategies room to differ.
func BenchmarkSIPSAblation(b *testing.B) {
	rng := rand.New(rand.NewPCG(9, 9))
	w := workload.AMIE(workload.AMIEDBParams{Countries: 10, People: 50}, rng)
	scratch := w.DB.CloneSchema()
	for _, p := range w.Program.EDBs() {
		if rel, ok := w.DB.Lookup(p); ok {
			scratch.Attach(rel)
		}
	}
	db2 := contribmax.Database{Database: scratch}
	if _, err := contribmax.Eval(w.Program, db2); err != nil {
		b.Fatal(err)
	}
	targets := db2.Facts("tradePartnerOf")
	if len(targets) < 4 {
		b.Skip("too few targets")
	}
	in := contribmax.Input{Program: w.Program, DB: w.DB, T2: targets[:4], K: 2}
	run := func(b *testing.B, sips magic.SIPS) {
		for i := 0; i < b.N; i++ {
			if _, err := contribmax.MagicSampledCM(in, contribmax.Options{
				Theta: contribmax.ThetaSpec{Explicit: 20},
				SIPS:  sips,
				Rand:  rand.New(rand.NewPCG(uint64(i), 5)),
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("leftToRight", func(b *testing.B) { run(b, magic.LeftToRight) })
	b.Run("boundFirst", func(b *testing.B) { run(b, magic.BoundFirst) })
}

// rrGenWorkload is the RIS hot path the RRGenSelect benchmarks isolate: a
// prebuilt WD graph whose edb fact nodes are the candidates (dense ids in
// node order) and whose derived fact nodes are the roots.
type rrGenWorkload struct {
	walker     *wdgraph.Walker
	candOfNode []int32
	roots      []wdgraph.NodeID
	numCands   int
	buf        []im.CandidateID
}

// rrGenTheta and rrGenK are the RR sets drawn and the seeds selected per
// benchmark iteration.
const rrGenTheta, rrGenK = 2000, 5

func newRRGenWorkload(b *testing.B) *rrGenWorkload {
	rng := rand.New(rand.NewPCG(1, 2))
	d := workload.RandomGraphM(40, 70, rng)
	prog := workload.TCProgram(0.7, 0.45)
	g, _, err := wdgraph.Build(prog, d, wdgraph.BuildConfig{})
	if err != nil {
		b.Fatal(err)
	}
	w := &rrGenWorkload{walker: wdgraph.NewWalker(g), candOfNode: make([]int32, g.NumNodes())}
	for i := range w.candOfNode {
		w.candOfNode[i] = -1
	}
	g.FactNodes(func(id wdgraph.NodeID, n wdgraph.Node) {
		if n.EDB {
			w.candOfNode[id] = int32(w.numCands)
			w.numCands++
		} else {
			w.roots = append(w.roots, id)
		}
	})
	if len(w.roots) == 0 || w.numCands == 0 {
		b.Fatal("degenerate instance")
	}
	return w
}

// selectSeeds draws rrGenTheta RR sets by reverse sampled walks on the
// stream of iteration i, recording each through rec as a slot worker does
// (nil records nothing), and selects rrGenK seeds by greedy coverage.
func (w *rrGenWorkload) selectSeeds(b *testing.B, i int, rec *instr.RR) {
	wrng := rand.New(rand.NewPCG(uint64(i), 7))
	coll := im.NewRRCollection(w.numCands)
	for j := 0; j < rrGenTheta; j++ {
		t0 := rec.Start()
		w.buf = w.buf[:0]
		root := w.roots[wrng.IntN(len(w.roots))]
		w.walker.ReverseReachable(root, wrng, false, func(v wdgraph.NodeID) {
			if c := w.candOfNode[v]; c >= 0 {
				w.buf = append(w.buf, im.CandidateID(c))
			}
		})
		coll.Add(w.buf)
		rec.Set(0, len(w.buf), t0)
	}
	if res := im.Greedy(coll, rrGenK); res.Covered == 0 {
		b.Fatal("no coverage")
	}
}

// BenchmarkRRGenSelect isolates the RIS hot path — reverse sampled walks
// feeding the RR collection, then greedy maximum-coverage selection — on a
// prebuilt WD graph, excluding evaluation and graph construction. This is
// the throughput the CSR adjacency + arena collection layout targets;
// compare against the pre-refactor number recorded in docs/PERFORMANCE.md.
func BenchmarkRRGenSelect(b *testing.B) {
	w := newRRGenWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.selectSeeds(b, i, nil)
	}
}

// BenchmarkRRGenSelectInstrumented is BenchmarkRRGenSelect under the
// solve instrument's overhead contract, through the per-RR-set calls a
// slot worker makes (instr.RR: Start before the walk, Set after it, Flush
// at the end of the batch). "disabled" is an unobserved solve's nil
// instrument: one pointer check per call, allocation-free, so it must be
// indistinguishable from the plain benchmark. "registry", "journal" and
// "profile" attach one sink each — rr.* metrics, rr.batch events into a
// live in-memory journal, per-target walk attribution plus a Report
// render per iteration — and "all" attaches all four. The acceptance
// bound for every enabled leg is 5%.
func BenchmarkRRGenSelectInstrumented(b *testing.B) {
	w := newRRGenWorkload(b)
	for _, leg := range []struct {
		name            string
		reg, jr, pf, sp bool
	}{
		{"disabled", false, false, false, false},
		{"registry", true, false, false, false},
		{"journal", false, true, false, false},
		{"profile", false, false, true, false},
		{"all", true, true, true, true},
	} {
		b.Run(leg.name, func(b *testing.B) {
			var reg *obs.Registry
			var jr *journal.Journal
			var trace *obs.Span
			if leg.reg {
				reg = obs.NewRegistry()
			}
			if leg.jr {
				jr = journal.New("bench", journal.Options{})
			}
			if leg.sp {
				trace = obs.StartSpan("bench")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var p *prof.Profile
				if leg.pf {
					p = prof.New()
					p.EnsureTargets(1)
				}
				rec := instr.New(reg, trace, jr, p).NewRR(0)
				w.selectSeeds(b, i, rec)
				rec.Flush()
				if p != nil {
					if rep := p.Report(); rep.RR == nil || rep.RR.Walks != rrGenTheta {
						b.Fatalf("profile lost walks: %+v", rep.RR)
					}
				}
			}
		})
	}
}
