package experiments

import (
	"strings"
	"testing"
)

func figWith(title, yLabel string, val float64) ReportFigure {
	return ReportFigure{
		Title: title, XLabel: "x", YLabel: yLabel, Series: []string{"A"},
		Rows: []ReportRow{{X: "10", Values: map[string]float64{"A": val}}},
	}
}

func TestDiffReportsDirections(t *testing.T) {
	baseline := &Report{Figures: []ReportFigure{
		figWith("time fig", "RR generation time (ms)", 100),
		figWith("quality fig", "contribution", 1.0),
		figWith("mystery fig", "widgets", 1.0),
	}}
	current := &Report{Figures: []ReportFigure{
		figWith("time fig", "RR generation time (ms)", 130),   // +30%: regression
		figWith("quality fig", "contribution", 0.7),           // -30%: regression
		figWith("mystery fig", "widgets", 5.0),                // unknown axis: ignored
		figWith("new fig", "RR generation time (ms)", 999999), // no baseline: ignored
	}}
	warnings := DiffReports(baseline, current, 0.20)
	if len(warnings) != 2 {
		t.Fatalf("warnings = %v, want 2", warnings)
	}
	if !strings.Contains(warnings[0], "time fig") || !strings.Contains(warnings[0], "+30.0%") {
		t.Errorf("time warning = %q", warnings[0])
	}
	if !strings.Contains(warnings[1], "quality fig") || !strings.Contains(warnings[1], "-30.0%") {
		t.Errorf("quality warning = %q", warnings[1])
	}

	// Improvements and small changes stay quiet.
	better := &Report{Figures: []ReportFigure{
		figWith("time fig", "RR generation time (ms)", 85),
		figWith("quality fig", "contribution", 1.1),
	}}
	if w := DiffReports(baseline, better, 0.20); len(w) != 0 {
		t.Errorf("unexpected warnings: %v", w)
	}
}
