package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const tcProgram = `1.0 r1: tc(X, Y) :- edge(X, Y).
0.8 r2: tc(X, Y) :- tc(X, Z), tc(Z, Y).
`

const tcFacts = `edge(a, b). edge(b, c). edge(x, y).
`

func writeFiles(t *testing.T, program, facts string) (string, string) {
	t.Helper()
	dir := t.TempDir()
	pp := filepath.Join(dir, "prog.dl")
	fp := filepath.Join(dir, "edb.facts")
	if err := os.WriteFile(pp, []byte(program), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fp, []byte(facts), 0o644); err != nil {
		t.Fatal(err)
	}
	return pp, fp
}

func TestRunWarnAsError(t *testing.T) {
	// The zero-probability rule lints as a warning: fatal only under -W
	// error, mirroring cmlint and cmserve.
	pp, fp := writeFiles(t, tcProgram+"0.0 dead: tc(X, Y) :- edge(Y, X).\n", tcFacts)
	base := []string{"-program", pp, "-facts", fp, "-target", "tc(a, c)", "-k", "1", "-rr", "200"}

	var out, errBuf strings.Builder
	if err := run(base, &out, &errBuf); err != nil {
		t.Fatalf("warnings without -W error: %v", err)
	}
	if !strings.Contains(errBuf.String(), "warning") {
		t.Errorf("warning not printed to stderr: %q", errBuf.String())
	}

	err := run(append([]string{"-W", "error"}, base...), &out, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "static analysis") {
		t.Errorf("with -W error: err = %v, want static-analysis rejection", err)
	}

	if err := run(append([]string{"-W", "bogus"}, base...), &out, &errBuf); err == nil {
		t.Error("bad -W value accepted")
	}
}

func TestRunPruneByteIdentical(t *testing.T) {
	// d1 is outside tc's dependency cone; -prune must drop it without
	// changing the solution.
	pp, fp := writeFiles(t, tcProgram+"1.0 d1: other(X) :- edge(X, X).\n", tcFacts)
	base := []string{"-program", pp, "-facts", fp, "-target", "tc(a, c)", "-k", "1", "-rr", "200", "-json"}

	type result struct {
		Seeds           []string `json:"seeds"`
		EstContribution float64  `json:"estContribution"`
		RulesTotal      int      `json:"rulesTotal"`
		RulesPruned     int      `json:"rulesPruned"`
	}
	solve := func(args []string) result {
		t.Helper()
		var out, errBuf strings.Builder
		if err := run(args, &out, &errBuf); err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
		var r result
		if err := json.Unmarshal([]byte(out.String()), &r); err != nil {
			t.Fatalf("output is not JSON: %v\n%s", err, out.String())
		}
		return r
	}

	plain := solve(base)
	pruned := solve(append([]string{"-prune"}, base...))
	if plain.RulesTotal != 3 || plain.RulesPruned != 0 {
		t.Errorf("unpruned counts = %d/%d, want 0/3", plain.RulesPruned, plain.RulesTotal)
	}
	if pruned.RulesTotal != 3 || pruned.RulesPruned != 1 {
		t.Errorf("pruned counts = %d/%d, want 1/3", pruned.RulesPruned, pruned.RulesTotal)
	}
	if strings.Join(plain.Seeds, ";") != strings.Join(pruned.Seeds, ";") ||
		plain.EstContribution != pruned.EstContribution {
		t.Errorf("pruned solve diverged: %+v vs %+v", pruned, plain)
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	pp, fp := writeFiles(t, tcProgram, tcFacts)
	var out, errBuf strings.Builder
	err := run([]string{"-program", pp, "-facts", fp, "-target", "tc(a, c)", "-k", "1", "-algo", "greedy"}, &out, &errBuf)
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if !strings.Contains(err.Error(), "naive, magic, magics, magicg, exact, dnf") {
		t.Errorf("error %q does not name the six algorithms", err)
	}
}
