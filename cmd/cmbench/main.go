// Command cmbench regenerates the paper's evaluation figures (Section V)
// and prints each as a plain-text table: Figures 2 & 3 (per-RR graph size
// and generation time vs output size), Figures 4 & 5 (graph size and
// runtime vs number of RR sets), and Figures 7a/7b (approximation quality
// vs the exhaustive optimum).
//
// Usage:
//
//	cmbench                 # all figures, quick scale
//	cmbench -fig 2 -ds TC   # one figure, one dataset
//	cmbench -full           # the full laptop-scale sweep (minutes)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"contribmax/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cmbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fig           = flag.String("fig", "all", "figure to regenerate: 2, 3, 4, 5, 7a, 7b, or all")
		ds            = flag.String("ds", "all", "dataset: TC, Explain, IRIS, AMIE, or all")
		full          = flag.Bool("full", false, "run the full-scale sweep (minutes) instead of the quick one")
		format        = flag.String("format", "text", "output format: text | csv")
		jsonOut       = flag.String("json", "", "also write every figure to this file as a machine-readable BENCH report")
		diff          = flag.String("diff", "", "compare this run against a baseline BENCH_*.json and warn (stderr) on regressions beyond -diff-threshold")
		diffThreshold = flag.Float64("diff-threshold", 0.20, "relative slowdown that counts as a regression for -diff (0.20 = 20%)")
		diffStrict    = flag.Bool("diff-strict", false, "exit nonzero when -diff finds regressions (default: warn only, for noisy CI runners)")
		cacheAB       = flag.Bool("cache-ab", false, "also run and print the solve-cache cold/warm A/B (always included in -json reports)")
		estimatorAB   = flag.Bool("estimator-ab", false, "also run and print the exact/RIS/DNF estimator A/B (always included in -json reports)")
		profileRun    = flag.Bool("profile", false, "also run and print the runtime-profiled reference solve's rule hotspots (always included in -json reports)")
	)
	flag.Parse()

	scale := experiments.Quick
	scaleName := "quick"
	if *full {
		scale = experiments.Full
		scaleName = "full"
	}
	var report *experiments.Report
	if *jsonOut != "" || *diff != "" {
		report = experiments.NewReport(scaleName)
	}
	datasets := experiments.Datasets
	if *ds != "all" {
		datasets = []experiments.Dataset{experiments.Dataset(*ds)}
		found := false
		for _, d := range experiments.Datasets {
			if d == datasets[0] {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("unknown dataset %q", *ds)
		}
	}

	want := func(f string) bool { return *fig == "all" || *fig == f }
	emit := func(t *experiments.Table) error {
		if report != nil {
			report.AddTable(t)
		}
		if *format == "csv" {
			if err := t.WriteCSV(os.Stdout); err != nil {
				return err
			}
		} else {
			t.Print(os.Stdout)
		}
		fmt.Println()
		return nil
	}

	if want("2") || want("3") {
		for _, d := range datasets {
			fig2, fig3, err := experiments.FigureVaryingDataSize(d, scale)
			if err != nil {
				return err
			}
			if want("2") {
				if err := emit(fig2); err != nil {
					return err
				}
			}
			if want("3") {
				if err := emit(fig3); err != nil {
					return err
				}
			}
		}
	}
	if want("4") || want("5") {
		for _, d := range datasets {
			fig4, fig5, err := experiments.FigureVaryingRRSets(d, scale)
			if err != nil {
				return err
			}
			if want("4") {
				if err := emit(fig4); err != nil {
					return err
				}
			}
			if want("5") {
				if err := emit(fig5); err != nil {
					return err
				}
			}
		}
	}
	if want("7a") || strings.EqualFold(*fig, "7") {
		t, err := experiments.Figure7a(scale)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if want("7b") || strings.EqualFold(*fig, "7") {
		t, err := experiments.Figure7b(scale)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if *cacheAB || report != nil {
		// The cache A/B resolves the same request cold and warm against the
		// solve cache and fails hard if the warm replay misses or diverges.
		summaries, err := experiments.CacheSummaries()
		if err != nil {
			return err
		}
		if report != nil {
			report.Cache = summaries
		}
		if *cacheAB {
			t := experiments.CacheTable(summaries)
			if *format == "csv" {
				if err := t.WriteCSV(os.Stdout); err != nil {
					return err
				}
			} else {
				t.Print(os.Stdout)
			}
			fmt.Println()
		}
	}
	if *estimatorAB || report != nil {
		// The estimator A/B solves the same power-law instances with the
		// exact lifted tier, RIS, and DNF world sampling, and fails hard if
		// a sampler strays beyond its error proxy of the exact value.
		summaries, err := experiments.EstimatorSummaries()
		if err != nil {
			return err
		}
		if report != nil {
			report.Estimators = summaries
		}
		if *estimatorAB {
			t := experiments.EstimatorTable(summaries)
			if *format == "csv" {
				if err := t.WriteCSV(os.Stdout); err != nil {
					return err
				}
			} else {
				t.Print(os.Stdout)
			}
			fmt.Println()
		}
	}
	if *profileRun || report != nil {
		// The profiled reference solve embeds rule-level hotspots so report
		// diffs notice when evaluation behavior shifts, not just timings.
		summary, err := experiments.ProfiledReferenceSolve(scale)
		if err != nil {
			return err
		}
		if report != nil {
			report.Profile = summary
		}
		if *profileRun {
			t := experiments.ProfileTable(summary)
			if *format == "csv" {
				if err := t.WriteCSV(os.Stdout); err != nil {
					return err
				}
			} else {
				t.Print(os.Stdout)
			}
			fmt.Println()
		}
	}
	if report != nil {
		// The journaled reference solve gives every report a comparable
		// RR/coverage telemetry block alongside the figures.
		summary, err := experiments.JournaledReferenceSolve(scale)
		if err != nil {
			return err
		}
		report.Journal = summary
		// Static dead-rule summaries let report diffs notice workload
		// program changes (see DiffReports).
		pruning, err := experiments.PruningSummaries()
		if err != nil {
			return err
		}
		report.Pruning = pruning
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		if err := report.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cmbench: wrote %d figure(s) to %s\n", len(report.Figures), *jsonOut)
	}
	if *diff != "" {
		data, err := os.ReadFile(*diff)
		if err != nil {
			return err
		}
		baseline, err := experiments.LoadReport(data)
		if err != nil {
			return fmt.Errorf("baseline %s: %w", *diff, err)
		}
		warnings := experiments.DiffReports(baseline, report, *diffThreshold)
		if len(warnings) == 0 {
			fmt.Fprintf(os.Stderr, "cmbench: no regressions >%.0f%% vs %s\n", *diffThreshold*100, *diff)
		}
		// Warn-only by default: benchmark noise on shared CI runners must
		// not fail the build; -diff-strict opts into a hard gate.
		for _, w := range warnings {
			fmt.Fprintf(os.Stderr, "cmbench: WARNING: regression vs %s: %s\n", *diff, w)
		}
		if *diffStrict && len(warnings) > 0 {
			return fmt.Errorf("%d regression(s) beyond %.0f%% vs %s", len(warnings), *diffThreshold*100, *diff)
		}
	}
	return nil
}
