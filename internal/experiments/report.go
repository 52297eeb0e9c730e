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
// version) to compare runs. It is what `cmbench -json` writes. Older
// committed reports also carry measurement blocks beside the figures;
// decoding ignores them, so those files still validate.
type Report struct {
	Schema    string         `json:"schema"`
	Scale     string         `json:"scale"`
	GoVersion string         `json:"goVersion"`
	Figures   []ReportFigure `json:"figures"`
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
