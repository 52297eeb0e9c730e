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
	"slices"
	"strings"

	"contribmax/internal/experiments"
)

// figures lists the -fig values: one figure each, 7 for both 7a and 7b.
var figures = []string{"2", "3", "4", "5", "7a", "7b", "7", "all"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cmbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fig           = flag.String("fig", "all", "figure to regenerate: 2, 3, 4, 5, 7a, 7b, 7 (both 7a and 7b), or all")
		ds            = flag.String("ds", "all", "dataset: TC, Explain, IRIS, AMIE, or all")
		full          = flag.Bool("full", false, "run the full-scale sweep (minutes) instead of the quick one")
		format        = flag.String("format", "text", "output format: text | csv")
		jsonOut       = flag.String("json", "", "also write every figure to this file as a machine-readable BENCH report")
		diff          = flag.String("diff", "", "compare this run against a baseline BENCH_*.json and warn (stderr) on regressions beyond -diff-threshold")
		diffThreshold = flag.Float64("diff-threshold", 0.20, "relative slowdown that counts as a regression for -diff (0.20 = 20%)")
		diffStrict    = flag.Bool("diff-strict", false, "exit nonzero when -diff finds regressions (default: warn only, for noisy CI runners)")
	)
	flag.Parse()

	if !slices.Contains(figures, *fig) {
		return fmt.Errorf("unknown figure %q (want one of %s)", *fig, strings.Join(figures, ", "))
	}
	if *format != "text" && *format != "csv" {
		return fmt.Errorf("unknown format %q (want text or csv)", *format)
	}
	datasets := experiments.Datasets
	if *ds != "all" {
		d := experiments.Dataset(*ds)
		if !slices.Contains(experiments.Datasets, d) {
			return fmt.Errorf("unknown dataset %q (want TC, Explain, IRIS, AMIE or all)", *ds)
		}
		datasets = []experiments.Dataset{d}
	}

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
	if want("7a") || *fig == "7" {
		t, err := experiments.Figure7a(scale)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if want("7b") || *fig == "7" {
		t, err := experiments.Figure7b(scale)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
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
