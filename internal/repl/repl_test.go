package repl_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"contribmax/internal/repl"
)

// drive runs a scripted session and returns the transcript.
func drive(t *testing.T, lines ...string) string {
	t.Helper()
	var out strings.Builder
	in := strings.NewReader(strings.Join(lines, "\n") + "\n")
	if err := repl.New().Run(in, &out); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out.String()
}

func TestReplFactsRulesAndQuery(t *testing.T) {
	out := drive(t,
		"edge(a, b).",
		"edge(b, c).",
		"0.8 r1: tc(X, Y) :- edge(X, Y).",
		"0.5 r2: tc(X, Y) :- tc(X, Z), tc(Z, Y).",
		"?- tc(a, X).",
		":quit",
	)
	for _, want := range []string{"fact edge(a, b)", "rule 0.8 r1:", "tc(a, b)", "tc(a, c)", "2 results"} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript missing %q:\n%s", want, out)
		}
	}
}

func TestReplExplainAndProb(t *testing.T) {
	out := drive(t,
		"edge(a, b).",
		"0.6 r1: tc(X, Y) :- edge(X, Y).",
		":explain tc(a, b)",
		":prob tc(a, b)",
		":quit",
	)
	if !strings.Contains(out, "p = 0.6") {
		t.Errorf("explain missing:\n%s", out)
	}
	if !strings.Contains(out, "P[tc(a, b)] ~= 0.6") {
		t.Errorf("prob missing:\n%s", out)
	}
}

func TestReplSolve(t *testing.T) {
	session := func(solve string) string {
		return drive(t,
			"edge(a, b).", "edge(b, c).", "edge(x, y).",
			"1.0 r1: tc(X, Y) :- edge(X, Y).",
			"0.8 r2: tc(X, Y) :- tc(X, Z), tc(Z, Y).",
			solve,
			":quit",
		)
	}
	out := session(":solve k=1 tc(a,c)")
	if !strings.Contains(out, "1. edge(") {
		t.Errorf("solve missing seeds:\n%s", out)
	}
	// A target written the way answers print it, with a space after the
	// comma, is one target.
	if spaced := session(":solve k=1 tc(a, c)"); spaced != out {
		t.Errorf("tc(a, c) answered differently from tc(a,c):\n%s\nwant:\n%s", spaced, out)
	}
}

func TestReplLoadAndStats(t *testing.T) {
	out := drive(t,
		":load program ../../testdata/trade.dl",
		":load facts ../../testdata/trade.facts",
		":stats",
		"?- dealsWith(usa, iran).",
		":quit",
	)
	for _, want := range []string{"loaded 4 rules", "loaded 15 facts", "rules: 4", "1 results"} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript missing %q:\n%s", want, out)
		}
	}
}

func TestReplErrorsKeepSessionAlive(t *testing.T) {
	clash := filepath.Join(t.TempDir(), "clash.facts")
	if err := os.WriteFile(clash, []byte("p(a, b).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := drive(t,
		"broken(",
		":nosuch",
		"p(a).",
		":load facts "+clash,
		"?- fine(X).",
		"p(X) :- q(X). ",
		":explain p(nope)",
		":quit",
	)
	if c := strings.Count(out, "error:"); c < 2 {
		t.Errorf("want at least 2 errors, got %d:\n%s", c, out)
	}
	if !strings.Contains(out, "error: db: relation p used with arities 1 and 2") {
		t.Errorf("arity clash in a fact file should be reported:\n%s", out)
	}
	if !strings.Contains(out, "0 results") {
		t.Errorf("query after errors should still run:\n%s", out)
	}

	// A fact or a rule whose arity clashes with the base facts, or a fact
	// file that clashes with the program, is refused and leaves the
	// session able to evaluate.
	sclash := filepath.Join(t.TempDir(), "s.facts")
	if err := os.WriteFile(sclash, []byte("s(a, b).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out = drive(t,
		"p(a).",
		"p(a, b).",
		"q(a, b).",
		"0.5 q(a).",
		"1.0 r1: s(X) :- p(X).",
		":load facts "+sclash,
		"?- p(X).",
		":quit",
	)
	for _, want := range []string{
		"error: db: relation p used with arities 1 and 2",
		"error: db: relation q used with arities 2 and 1",
		"error: predicate s used with arities 1 and 2",
		"> p(a)\n1 results\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "rule 1 r1: p(a, b).") || strings.Contains(out, "rule 0.5 r1: q(a).") {
		t.Errorf("a clashing statement was stored:\n%s", out)
	}
}

// TestReplQueriesLeaveBaseFacts: a query evaluates on a copy of the base
// facts of the predicates the program derives, so a later rule sees the
// base facts as they were entered and :stats counts only those.
func TestReplQueriesLeaveBaseFacts(t *testing.T) {
	out := drive(t,
		"q(a).",
		"p(z).",
		"1.0 r1: p(X) :- q(X), not r(X).",
		"?- p(X).",
		"1.0 r2: r(X) :- q(X).",
		"?- p(X).",
		":quit",
	)
	if !strings.HasSuffix(out, "> p(z)\n1 results\n> ") {
		t.Errorf("second query should answer p(z) only:\n%s", out)
	}

	out = drive(t,
		"edge(a, b).",
		"edge(b, c).",
		"tc(x, y).",
		"1.0 r1: tc(X, Y) :- edge(X, Y).",
		":stats",
		"?- tc(X, Y).",
		":stats",
		":quit",
	)
	if c := strings.Count(out, "base facts: 3\n"); c != 2 {
		t.Errorf("base facts should count 3 before and after the query, got %d matches:\n%s", c, out)
	}
	if !strings.Contains(out, "tc(x, y)\n3 results") {
		t.Errorf("query should answer the base tc fact and the derived ones:\n%s", out)
	}
}

// TestReplProgramListing also checks that a rule relabeled on a label
// collision is echoed under the label it was stored under.
func TestReplProgramListing(t *testing.T) {
	out := drive(t,
		"0.7 z: p(X) :- q(X).",
		"0.6 z: s(X) :- q(X).",
		":program",
		":quit",
	)
	for _, want := range []string{"0.7 z: p(X) :- q(X).", "> rule 0.6 i1: s(X) :- q(X).\n", "\n0.6 i1: s(X) :- q(X)."} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript missing %q:\n%s", want, out)
		}
	}
}

func TestReplEOFEndsCleanly(t *testing.T) {
	var out strings.Builder
	if err := repl.New().Run(strings.NewReader("edge(a, b).\n"), &out); err != nil {
		t.Fatalf("EOF should be clean: %v", err)
	}
}

func TestReplPatternSolveTargets(t *testing.T) {
	out := drive(t,
		"edge(a, b).", "edge(b, c).",
		"1.0 r1: tc(X, Y) :- edge(X, Y).",
		"0.8 r2: tc(X, Y) :- tc(X, Z), tc(Z, Y).",
		":solve k=1 tc(a,X)",
		":quit",
	)
	if !strings.Contains(out, "to 2 targets") {
		t.Errorf("pattern expansion missing:\n%s", out)
	}
}
