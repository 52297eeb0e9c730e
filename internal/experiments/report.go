package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
)

// ReportSchema identifies the BENCH_*.json layout; bump on incompatible
// changes so downstream tooling can reject files it does not understand.
const ReportSchema = "contribmax/bench/v1"

// Report is the machine-readable form of one cmbench run: every emitted
// figure with its full series data, plus enough provenance (scale, Go
// version) to compare runs. It is what `cmbench -json` writes.
type Report struct {
	Schema    string         `json:"schema"`
	Scale     string         `json:"scale"`
	GoVersion string         `json:"goVersion"`
	Figures   []ReportFigure `json:"figures"`
	// Journal, when present, summarizes the journaled reference solve run
	// alongside the figures (RR generation and coverage telemetry; see
	// JournaledReferenceSolve). Additive and optional: reports written
	// before this field existed still validate.
	Journal *JournalSummary `json:"journal,omitempty"`
	// Pruning, when present, records the dead-rule analysis of each
	// dataset's program against its flagship query root (see
	// PruningSummaries), so report diffs track when workload programs
	// gain or lose prunable rules. Additive and optional like Journal.
	Pruning []PruningSummary `json:"pruning,omitempty"`
	// Cache, when present, records the solve-cache A/B per dataset (see
	// CacheSummaries): the same Magic^S request resolved cold and warm,
	// with the warm replay's hit accounting and speedup. Additive and
	// optional like the other measurement blocks.
	Cache []CacheSummary `json:"cache,omitempty"`
	// Estimators, when present, records the three-way estimator A/B on the
	// power-law family (see EstimatorSummaries): the exact lifted tier,
	// RIS, and DNF world sampling on identical inputs. Additive and
	// optional like the other measurement blocks.
	Estimators []EstimatorSummary `json:"estimators,omitempty"`
	// Profile, when present, records the runtime-profiled reference solve's
	// rule-level hotspots (see ProfiledReferenceSolve): which rules derive
	// the most tuples and where fixpoint time goes. Additive and optional
	// like the other measurement blocks.
	Profile *ProfileSummary `json:"profile,omitempty"`
}

// PruningSummary is the dead-rule analysis of one dataset's program:
// how many of its rules are provably outside the flagship root's
// dependency cone (plus zero-probability rules). Static — computed from
// the program alone, no solve involved.
type PruningSummary struct {
	Dataset     string `json:"dataset"`
	Root        string `json:"root"`
	RulesTotal  int    `json:"rules_total"`
	RulesPruned int    `json:"rules_pruned"`
}

// JournalSummary condenses one solve's event journal into the RR and
// coverage figures a benchmark report wants to track over time.
type JournalSummary struct {
	Run          string  `json:"run"`
	Algorithm    string  `json:"algorithm"`
	RRSets       int     `json:"rrSets"`
	AvgRRMembers float64 `json:"avgRRMembers"`
	CoveredRR    int     `json:"coveredRR"`
	Coverage     float64 `json:"coverage"`
	SelectIters  int     `json:"selectIters"`
	// FinalErrProxy is the selection's ε-style error proxy after the last
	// iteration (see journal.ErrProxy).
	FinalErrProxy float64 `json:"finalErrProxy"`
	Events        int     `json:"events"`
}

// ReportFigure is one Table in report form.
type ReportFigure struct {
	Title  string      `json:"title"`
	XLabel string      `json:"xLabel"`
	YLabel string      `json:"yLabel"`
	Series []string    `json:"series"`
	Rows   []ReportRow `json:"rows"`
}

// ReportRow is one x point. Values maps series name to cell; NaN cells
// (not run / infeasible at this scale) are omitted, since JSON has no NaN.
type ReportRow struct {
	X      string             `json:"x"`
	Values map[string]float64 `json:"values"`
}

// NewReport returns an empty report for the given scale label.
func NewReport(scale string) *Report {
	return &Report{Schema: ReportSchema, Scale: scale, GoVersion: runtime.Version()}
}

// AddTable appends a figure converted from t.
func (r *Report) AddTable(t *Table) {
	fig := ReportFigure{
		Title:  t.Title,
		XLabel: t.XLabel,
		YLabel: t.YLabel,
		Series: append([]string(nil), t.Series...),
	}
	for row := range t.XLabels {
		rr := ReportRow{X: t.XLabels[row], Values: map[string]float64{}}
		for c, v := range t.Cells[row] {
			if !math.IsNaN(v) {
				rr.Values[t.Series[c]] = v
			}
		}
		fig.Rows = append(fig.Rows, rr)
	}
	r.Figures = append(r.Figures, fig)
}

// WriteJSON writes the report, indented for diff-friendliness.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ValidateReportJSON checks that data is a structurally sound report: the
// expected schema tag, at least one figure, and every row's values keyed by
// declared series names only. It is the contract the CI smoke test (and any
// external consumer) holds BENCH_*.json files to.
func ValidateReportJSON(data []byte) error {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("bench report: %w", err)
	}
	if r.Schema != ReportSchema {
		return fmt.Errorf("bench report: schema %q, want %q", r.Schema, ReportSchema)
	}
	if r.GoVersion == "" {
		return fmt.Errorf("bench report: missing goVersion")
	}
	if len(r.Figures) == 0 {
		return fmt.Errorf("bench report: no figures")
	}
	for pi, p := range r.Pruning {
		if p.Dataset == "" || p.Root == "" {
			return fmt.Errorf("bench report: pruning entry %d lacks dataset or root", pi)
		}
		if p.RulesTotal <= 0 || p.RulesPruned < 0 || p.RulesPruned > p.RulesTotal {
			return fmt.Errorf("bench report: pruning entry %q has impossible counts %d/%d",
				p.Dataset, p.RulesPruned, p.RulesTotal)
		}
	}
	for ci, c := range r.Cache {
		if c.Dataset == "" {
			return fmt.Errorf("bench report: cache entry %d lacks a dataset", ci)
		}
		if c.ColdMillis < 0 || c.WarmMillis < 0 || c.Speedup < 0 {
			return fmt.Errorf("bench report: cache entry %q has negative measurements", c.Dataset)
		}
		if c.RRHits <= 0 {
			return fmt.Errorf("bench report: cache entry %q reports a warm solve that never hit (rr_hits=%d)",
				c.Dataset, c.RRHits)
		}
	}
	for ei, e := range r.Estimators {
		if e.Dataset == "" {
			return fmt.Errorf("bench report: estimator entry %d lacks a dataset", ei)
		}
		if e.Targets <= 0 {
			return fmt.Errorf("bench report: estimator entry %q has no targets", e.Dataset)
		}
		if e.ExactMillis < 0 || e.RISMillis < 0 || e.DNFMillis < 0 {
			return fmt.Errorf("bench report: estimator entry %q has negative timings", e.Dataset)
		}
		if e.MaxDeviation < 0 || e.ExactValue < 0 {
			return fmt.Errorf("bench report: estimator entry %q has impossible values (exact %g, dev %g)",
				e.Dataset, e.ExactValue, e.MaxDeviation)
		}
		if e.LineageClauses <= 0 {
			return fmt.Errorf("bench report: estimator entry %q reports an exact solve with no lineage clauses",
				e.Dataset)
		}
	}
	if p := r.Profile; p != nil {
		if p.Algorithm == "" || p.EngineRuns <= 0 || p.Rules <= 0 {
			return fmt.Errorf("bench report: profile block lacks an algorithm or engine accounting")
		}
		if p.Derived < 0 || p.Attempted < p.Derived {
			return fmt.Errorf("bench report: profile block has impossible counts (derived %d, attempted %d)",
				p.Derived, p.Attempted)
		}
		if len(p.TopRules) == 0 {
			return fmt.Errorf("bench report: profile block has no rule hotspots")
		}
		for ri, tr := range p.TopRules {
			if tr.Rule == "" {
				return fmt.Errorf("bench report: profile rule %d has no identity", ri)
			}
			if tr.Derived < 0 || tr.Attempted < tr.Derived || tr.SelfMillis < 0 {
				return fmt.Errorf("bench report: profile rule %q has impossible accounting", tr.Rule)
			}
		}
	}
	for fi, f := range r.Figures {
		if f.Title == "" {
			return fmt.Errorf("bench report: figure %d has no title", fi)
		}
		if len(f.Series) == 0 {
			return fmt.Errorf("bench report: figure %q has no series", f.Title)
		}
		known := map[string]bool{}
		for _, s := range f.Series {
			known[s] = true
		}
		if len(f.Rows) == 0 {
			return fmt.Errorf("bench report: figure %q has no rows", f.Title)
		}
		for ri, row := range f.Rows {
			if row.X == "" {
				return fmt.Errorf("bench report: figure %q row %d has no x label", f.Title, ri)
			}
			for s := range row.Values {
				if !known[s] {
					return fmt.Errorf("bench report: figure %q row %q has undeclared series %q", f.Title, row.X, s)
				}
			}
		}
	}
	return nil
}
