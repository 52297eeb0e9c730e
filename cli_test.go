package contribmax_test

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"contribmax/internal/experiments"
)

// TestCLIsRun smoke-tests every command-line tool end to end against the
// bundled testdata. Skipped under -short.
func TestCLIsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests are slow; skipped with -short")
	}
	run := func(t *testing.T, args ...string) string {
		t.Helper()
		out, err := exec.Command("go", args...).CombinedOutput()
		if err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return string(out)
	}

	t.Run("cmrun", func(t *testing.T) {
		t.Parallel()
		out := run(t, "run", "./cmd/cmrun",
			"-program", "testdata/trade.dl", "-facts", "testdata/trade.facts",
			"-target", "dealsWith(russia, ukraine)", "-k", "1", "-rr", "300", "-json")
		if !strings.Contains(out, `"algorithm": "MagicSCM"`) || !strings.Contains(out, "gas") {
			t.Errorf("cmrun output:\n%s", out)
		}
	})

	t.Run("wddump", func(t *testing.T) {
		t.Parallel()
		dot := filepath.Join(t.TempDir(), "g.dot")
		out := run(t, "run", "./cmd/wddump",
			"-program", "testdata/trade.dl", "-facts", "testdata/trade.facts",
			"-closure", "dealsWith(russia, ukraine)",
			"-explain", "dealsWith(russia, ukraine)",
			"-dot", dot)
		for _, want := range []string{"WD graph:", "ancestor facts", "derivation 1 of", "wrote DOT"} {
			if !strings.Contains(out, want) {
				t.Errorf("wddump missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("genwork-then-cmrun", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		out := run(t, "run", "./cmd/genwork", "-ds", "Trade", "-out", dir)
		if !strings.Contains(out, "wrote") {
			t.Fatalf("genwork output:\n%s", out)
		}
		out = run(t, "run", "./cmd/cmrun",
			"-program", filepath.Join(dir, "trade.dl"), "-facts", filepath.Join(dir, "trade.facts"),
			"-target", "dealsWith(russia, ukraine)", "-k", "1", "-rr", "200")
		if !strings.Contains(out, "seeds (greedy order):") {
			t.Errorf("cmrun on genwork output:\n%s", out)
		}
	})

	t.Run("genwork-snapshot", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		run(t, "run", "./cmd/genwork", "-ds", "TC", "-size", "12", "-out", dir, "-snapshot")
		out := run(t, "run", "./cmd/wddump",
			"-program", filepath.Join(dir, "tc.dl"), "-facts", filepath.Join(dir, "tc.cmdb"))
		if !strings.Contains(out, "WD graph:") {
			t.Errorf("wddump on snapshot:\n%s", out)
		}
	})

	t.Run("cmbench-csv", func(t *testing.T) {
		t.Parallel()
		out := run(t, "run", "./cmd/cmbench", "-fig", "7a", "-format", "csv")
		if !strings.Contains(out, "OPT,MagicSCM") {
			t.Errorf("cmbench CSV:\n%s", out)
		}
	})

	t.Run("cmbench-json", func(t *testing.T) {
		t.Parallel()
		path := filepath.Join(t.TempDir(), "BENCH_quick.json")
		run(t, "run", "./cmd/cmbench", "-fig", "7a", "-json", path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := experiments.ValidateReportJSON(data); err != nil {
			t.Errorf("BENCH report invalid: %v\n%s", err, data)
		}
		// The report carries the figures and their provenance, nothing else.
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(data, &fields); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range fields {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if want := []string{"figures", "goVersion", "scale", "schema"}; !slices.Equal(keys, want) {
			t.Errorf("BENCH report fields = %v, want %v", keys, want)
		}
	})

	t.Run("cmbench-rejects-unknown-values", func(t *testing.T) {
		t.Parallel()
		for _, bad := range []struct{ flag, value, msg string }{
			{"-fig", "bogus", "unknown figure"},
			{"-fig", "none", "unknown figure"},
			{"-format", "bogus", "unknown format"},
		} {
			path := filepath.Join(t.TempDir(), "BENCH_quick.json")
			out, err := exec.Command("go", "run", "./cmd/cmbench", bad.flag, bad.value, "-json", path).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || !strings.Contains(string(out), bad.msg) {
				t.Errorf("cmbench %s %s: err %v, want a nonzero exit naming %q:\n%s", bad.flag, bad.value, err, bad.msg, out)
			}
			if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("cmbench %s %s left a report behind (stat: %v)", bad.flag, bad.value, err)
			}
		}
	})

	t.Run("cmrun-journal-then-cmjournal", func(t *testing.T) {
		t.Parallel()
		path := filepath.Join(t.TempDir(), "solve.jsonl")
		out := run(t, "run", "./cmd/cmrun",
			"-program", "testdata/trade.dl", "-facts", "testdata/trade.facts",
			"-target", "dealsWith(russia, ukraine)", "-k", "2", "-rr", "300",
			"-journal", path)
		if !strings.Contains(out, "journal run ") {
			t.Fatalf("cmrun -journal output:\n%s", out)
		}
		out = run(t, "run", "./cmd/cmjournal", path)
		for _, want := range []string{
			"solve: MagicSCM", "config fingerprint:",
			"RR generation", "selection convergence", "finished in",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("cmjournal missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("cmbench-diff", func(t *testing.T) {
		t.Parallel()
		path := filepath.Join(t.TempDir(), "BENCH_quick.json")
		// First run writes the baseline; the second diffs against it —
		// same code, same scale, so no >20% regressions are expected.
		run(t, "run", "./cmd/cmbench", "-fig", "7a", "-json", path)
		out := run(t, "run", "./cmd/cmbench", "-fig", "7a", "-diff", path)
		if !strings.Contains(out, "no regressions") && !strings.Contains(out, "WARNING: regression") {
			t.Errorf("cmbench -diff output:\n%s", out)
		}
	})

	t.Run("cmrun-stats", func(t *testing.T) {
		t.Parallel()
		out := run(t, "run", "./cmd/cmrun",
			"-program", "testdata/trade.dl", "-facts", "testdata/trade.facts",
			"-target", "dealsWith(russia, ukraine)", "-k", "1", "-rr", "200", "-stats")
		// The phase tree and the metrics dump both land on stderr, which
		// CombinedOutput folds in.
		for _, want := range []string{"phases:", "MagicSCM", "rrgen", "select", "metrics:", "rr.sets", "cm.solves"} {
			if !strings.Contains(out, want) {
				t.Errorf("cmrun -stats missing %q:\n%s", want, out)
			}
		}
	})
}
