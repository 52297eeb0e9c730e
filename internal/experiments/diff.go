package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
)

// LoadReport parses and validates a BENCH report file's contents.
func LoadReport(data []byte) (*Report, error) {
	if err := ValidateReportJSON(data); err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// lowerIsBetter classifies a figure's y axis for regression direction:
// times and sizes regress upward, quality measures (contribution) regress
// downward. Unrecognized axes return ok=false and are not compared —
// better to stay silent than to warn in the wrong direction.
func lowerIsBetter(yLabel string) (lower, ok bool) {
	y := strings.ToLower(yLabel)
	switch {
	case strings.Contains(y, "time"), strings.Contains(y, "ms"),
		strings.Contains(y, "size"), strings.Contains(y, "bytes"):
		return true, true
	case strings.Contains(y, "contribution"), strings.Contains(y, "quality"),
		strings.Contains(y, "ratio"):
		return false, true
	}
	return false, false
}

// DiffReports compares a current report against a baseline and returns one
// human-readable warning per cell that regressed by more than threshold
// (e.g. 0.20 for 20%). Figures, series, and x points are matched by name;
// anything present in only one report is skipped — the diff is advisory,
// not a schema check. Quality figures (contribution) warn on decreases,
// cost figures (time, size) on increases.
func DiffReports(baseline, current *Report, threshold float64) []string {
	base := map[string]*ReportFigure{}
	for i := range baseline.Figures {
		base[baseline.Figures[i].Title] = &baseline.Figures[i]
	}
	var warnings []string
	for _, fig := range current.Figures {
		old, ok := base[fig.Title]
		if !ok {
			continue
		}
		lower, known := lowerIsBetter(fig.YLabel)
		if !known {
			continue
		}
		oldRows := map[string]map[string]float64{}
		for _, r := range old.Rows {
			oldRows[r.X] = r.Values
		}
		for _, row := range fig.Rows {
			prev, ok := oldRows[row.X]
			if !ok {
				continue
			}
			for series, cur := range row.Values {
				was, ok := prev[series]
				if !ok || was == 0 {
					continue
				}
				change := (cur - was) / was
				regressed := (lower && change > threshold) || (!lower && change < -threshold)
				if !regressed {
					continue
				}
				warnings = append(warnings, fmt.Sprintf(
					"%s [%s, x=%s]: %s %.4g -> %.4g (%+.1f%%)",
					fig.Title, series, row.X, fig.YLabel, was, cur, 100*change))
			}
		}
	}
	return warnings
}
