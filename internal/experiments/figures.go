package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"contribmax/internal/ast"
	"contribmax/internal/cm"
	"contribmax/internal/db"
	"contribmax/internal/im"
	"contribmax/internal/wdgraph"
	"contribmax/internal/workload"
)

// defaultK is the paper's default seed-set size (Section V-A).
const defaultK = 10

// rngFor derives a deterministic generator per (figure, dataset, size).
func rngFor(parts ...uint64) *rand.Rand {
	var a, b uint64 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9
	for i, p := range parts {
		if i%2 == 0 {
			a ^= p * 0xD6E8FEB86659FD93
		} else {
			b ^= p * 0xCA5A826395121157
		}
	}
	return rand.New(rand.NewPCG(a, b))
}

// runAlgo dispatches by algorithm name.
func runAlgo(name string, in cm.Input, opts cm.Options) (*cm.Result, error) {
	switch name {
	case "NaiveCM":
		return cm.NaiveCM(in, opts)
	case "MagicCM":
		return cm.MagicCM(in, opts)
	case "MagicSCM":
		return cm.MagicSampledCM(in, opts)
	case "MagicGCM":
		return cm.MagicGroupedCM(in, opts)
	}
	return nil, fmt.Errorf("unknown algorithm %q", name)
}

// FigureVaryingDataSize runs the Figures 2 & 3 experiment for one dataset:
// sweep the database size, record per-algorithm (a) the average WD
// (sub)graph size per RR-set computation (Figure 2) and (b) the amortized
// per-RR generation time (Figure 3). It returns the two tables.
//
// Algorithms follow the paper: NaiveCM, MagicCM and Magic^S CM (Magic^G is
// identical to MagicCM for a single RR set and is omitted here, as in the
// paper); for AMIE only Magic^S CM is feasible.
func FigureVaryingDataSize(ds Dataset, scale Scale) (fig2, fig3 *Table, err error) {
	series := []string{"NaiveCM", "MagicCM", "MagicSCM"}
	fig2 = &Table{
		Title:  fmt.Sprintf("Figure 2 (%s): WD (sub)graph size per RR set vs output size", ds),
		XLabel: "#outputs", YLabel: "avg graph size (nodes+edges)", Series: series,
	}
	fig3 = &Table{
		Title:  fmt.Sprintf("Figure 3 (%s): RR generation time vs output size", ds),
		XLabel: "#outputs", YLabel: "time per RR (ms)", Series: series,
	}
	for si, size := range sizesFor(ds, scale) {
		rng := rngFor(2, uint64(si), uint64(size), uint64(len(ds)))
		w, err := buildWorkload(ds, size, rng)
		if err != nil {
			return nil, nil, err
		}
		nOut, outputs, err := evalOutputs(w)
		if err != nil {
			return nil, nil, err
		}
		targets := sampleTargets(outputs, targetCount(scale), rng)
		in := cm.Input{Program: w.Program, DB: w.DB, T2: targets, K: defaultK}

		sizes := make([]float64, len(series))
		times := make([]float64, len(series))
		for i, algo := range series {
			if algo != "MagicSCM" && !feasibleUnsampled(ds, scale, nOut) {
				sizes[i], times[i] = math.NaN(), math.NaN()
				continue
			}
			res, err := runAlgo(algo, in, cm.Options{
				Theta: im.ThetaSpec{Fraction: im.DefaultFraction},
				Rand:  rngFor(20, uint64(si), uint64(i)),
			})
			if err != nil {
				return nil, nil, fmt.Errorf("%s/%s size %d: %w", ds, algo, size, err)
			}
			sizes[i] = res.Stats.AvgGraphSize()
			times[i] = float64(res.Stats.PerRRTime()) / float64(time.Millisecond)
		}
		x := fmt.Sprintf("%d", nOut)
		fig2.AddRow(x, sizes...)
		fig3.AddRow(x, times...)
	}
	return fig2, fig3, nil
}

// rrFractions is the Figures 4 & 5 sweep: #RR sets as a percentage of |T2|.
var rrFractions = []float64{0.01, 0.10, 0.30, 0.50, 1.00}

// FigureVaryingRRSets runs the Figures 4 & 5 experiment for one dataset at
// a fixed (largest-feasible) size: sweep the number of RR sets, record per
// algorithm (a) the average constructed graph size (Figure 4) and (b) the
// total RR-generation runtime (Figure 5). All four algorithms run here.
func FigureVaryingRRSets(ds Dataset, scale Scale) (fig4, fig5 *Table, err error) {
	series := []string{"NaiveCM", "MagicCM", "MagicSCM", "MagicGCM"}
	fig4 = &Table{
		Title:  fmt.Sprintf("Figure 4 (%s): graph size vs #RR sets", ds),
		XLabel: "%RR of |T2|", YLabel: "avg graph size (nodes+edges)", Series: series,
	}
	fig5 = &Table{
		Title:  fmt.Sprintf("Figure 5 (%s): runtime vs #RR sets", ds),
		XLabel: "%RR of |T2|", YLabel: "RR generation time (ms)", Series: series,
	}
	// As in the paper, the sweep runs at the largest size where all
	// algorithms are feasible (for AMIE, where only Magic^S ever is, at its
	// largest size with the other columns missing).
	sizes := sizesFor(ds, scale)
	size := sizes[len(sizes)-1]
	var w workload.Workload
	var outputs []ast.Atom
	unsampledOK := false
	for si := len(sizes) - 1; si >= 0; si-- {
		size = sizes[si]
		rng := rngFor(4, uint64(size), uint64(len(ds)))
		w, err = buildWorkload(ds, size, rng)
		if err != nil {
			return nil, nil, err
		}
		var nOut int
		nOut, outputs, err = evalOutputs(w)
		if err != nil {
			return nil, nil, err
		}
		if feasibleUnsampled(ds, scale, nOut) {
			unsampledOK = true
			break
		}
		if ds == AMIE {
			break // only Magic^S columns; keep the largest size
		}
	}
	rng := rngFor(4, uint64(size), uint64(len(ds)), 99)
	targets := sampleTargets(outputs, targetCount(scale), rng)
	in := cm.Input{Program: w.Program, DB: w.DB, T2: targets, K: defaultK}

	for fi, frac := range rrFractions {
		theta := int(math.Round(frac * float64(len(targets))))
		if theta < 1 {
			theta = 1
		}
		vals4 := make([]float64, len(series))
		vals5 := make([]float64, len(series))
		for i, algo := range series {
			if algo != "MagicSCM" && !unsampledOK {
				vals4[i], vals5[i] = math.NaN(), math.NaN()
				continue
			}
			res, err := runAlgo(algo, in, cm.Options{
				Theta: im.ThetaSpec{Explicit: theta},
				Rand:  rngFor(45, uint64(fi), uint64(i)),
			})
			if err != nil {
				return nil, nil, fmt.Errorf("%s/%s theta %d: %w", ds, algo, theta, err)
			}
			vals4[i] = res.Stats.AvgGraphSize()
			vals5[i] = float64(res.Stats.BuildTime+res.Stats.RRGenTime) / float64(time.Millisecond)
		}
		fig4.AddRow(fmt.Sprintf("%d%%", int(frac*100)), vals4...)
		fig5.AddRow(fmt.Sprintf("%d%%", int(frac*100)), vals5...)
	}
	return fig4, fig5, nil
}

// Figure7a runs the Section V-C star-graph case study: for growing
// star-with-sinks instances, compare the contribution of the exhaustive
// optimum with Magic^S CM's solution (both measured by the same
// Monte-Carlo estimator). X is the number of target idb tuples.
func Figure7a(scale Scale) (*Table, error) {
	t := &Table{
		Title:  "Figure 7a: contribution vs #idbs (star graphs), OPT vs Magic^S CM",
		XLabel: "#idbs", YLabel: "contribution", Series: []string{"OPT", "MagicSCM"},
	}
	shapes := []struct{ l, m int }{{3, 2}, {4, 2}, {5, 2}, {4, 3}, {5, 3}}
	if scale == Full {
		shapes = append(shapes, []struct{ l, m int }{{6, 3}, {6, 4}, {8, 4}}...)
	}
	estSamples := 20000
	for si, sh := range shapes {
		rng := rngFor(7, uint64(si))
		d, spokes, sinks := workload.StarWithSinks(sh.l, sh.m)
		var T2 []ast.Atom
		for _, sp := range spokes {
			for _, sk := range sinks {
				T2 = append(T2, ast.NewAtom("tc", ast.C(sp), ast.C(sk)))
			}
		}
		in := cm.Input{Program: workload.TCProgramDirected(1.0, 0.8), DB: d, T2: T2, K: 2}
		opt, err := cm.BruteForceOPT(in, 20000, rng)
		if err != nil {
			return nil, err
		}
		res, err := cm.MagicSampledCM(in, cm.Options{Theta: im.ThetaSpec{Explicit: 1500}, Rand: rng})
		if err != nil {
			return nil, err
		}
		est, err := cm.NewEstimator(in)
		if err != nil {
			return nil, err
		}
		optC, err := est.Contribution(opt.Seeds, estSamples, rng)
		if err != nil {
			return nil, err
		}
		magC, err := est.Contribution(res.Seeds, estSamples, rng)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", len(T2)), optC, magC)
	}
	return t, nil
}

// Figure7b runs the Section V-C density study: the directed probabilistic
// TC program over random graphs of fixed node count and growing edge
// probability. X is the WD-graph coverage density — the fraction of
// (candidate, target) pairs connected in the WD graph, which is 1 exactly
// when "all edbs are used to derive every idb" (the paper's d = 1 fully
// connected case) and small when each idb depends on a distinct slice of
// the edbs. The series compare OPT's and Magic^S CM's contributions.
func Figure7b(scale Scale) (*Table, error) {
	t := &Table{
		Title:  "Figure 7b: contribution vs WD-graph density, OPT vs Magic^S CM",
		XLabel: "density", YLabel: "contribution", Series: []string{"OPT", "MagicSCM"},
	}
	n := 12
	probs := []float64{0.06, 0.10, 0.16, 0.30, 0.60}
	if scale == Full {
		n = 16
	}
	for pi, p := range probs {
		rng := rngFor(7, 0xB, uint64(pi))
		d := workload.RandomGraph(n, p, rng)
		if d.TotalTuples() == 0 {
			continue
		}
		prog := workload.TCProgramDirected(0.7, 0.5)
		w := workload.Workload{Name: "tc", Program: prog, DB: d}
		_, outputs, err := evalOutputs(w)
		if err != nil {
			return nil, err
		}
		if len(outputs) < 4 {
			continue
		}
		// T1 is restricted to a small candidate pool so that OPT's
		// exhaustive search stays tractable, as in the paper's note that
		// OPT is computed only where feasible.
		var T1 []ast.Atom
		edges := d.Facts("edge")
		perm := rng.Perm(len(edges))
		for i := 0; i < len(edges) && len(T1) < 10; i++ {
			T1 = append(T1, edges[perm[i]])
		}
		T2 := sampleTargets(outputs, 12, rng)
		in := cm.Input{Program: prog, DB: d, T1: T1, T2: T2, K: 2}

		opt, err := cm.BruteForceOPT(in, 20000, rng)
		if err != nil {
			return nil, err
		}
		res, err := cm.MagicSampledCM(in, cm.Options{Theta: im.ThetaSpec{Explicit: 1500}, Rand: rng})
		if err != nil {
			return nil, err
		}
		est, err := cm.NewEstimator(in)
		if err != nil {
			return nil, err
		}
		optC, err := est.Contribution(opt.Seeds, 20000, rng)
		if err != nil {
			return nil, err
		}
		magC, err := est.Contribution(res.Seeds, 20000, rng)
		if err != nil {
			return nil, err
		}
		density := coverageDensity(est.Graph(), in.DB, T1, T2)
		t.AddRow(fmt.Sprintf("%.3f", density), optC, magC)
	}
	return t, nil
}

// coverageDensity computes the fraction of (T1 candidate, T2 target) pairs
// connected by a directed WD-graph path: 1 when every candidate reaches
// every target, near 0 when each target depends on a distinct slice of the
// candidates.
func coverageDensity(g *wdgraph.Graph, database *db.Database, T1, T2 []ast.Atom) float64 {
	if len(T1) == 0 || len(T2) == 0 {
		return 0
	}
	candID := map[wdgraph.NodeID]bool{}
	for _, a := range T1 {
		if tup, err := database.InternAtom(a); err == nil {
			if id, ok := g.FactID(a.Predicate, tup); ok {
				candID[id] = true
			}
		}
	}
	walker := wdgraph.NewWalker(g)
	connected := 0
	for _, target := range T2 {
		tup, err := database.InternAtom(target)
		if err != nil {
			continue
		}
		root, ok := g.FactID(target.Predicate, tup)
		if !ok {
			continue
		}
		walker.ReverseClosure(root, func(v wdgraph.NodeID) {
			if candID[v] {
				connected++
			}
		})
	}
	return float64(connected) / float64(len(T1)*len(T2))
}
