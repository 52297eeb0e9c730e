package contribmax_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"contribmax"
	"contribmax/internal/repl"
	"contribmax/internal/server"
)

// The front ends share one implementation of each request step; these
// tests send one request through each of them and compare the answers.

func postJSON(t *testing.T, url string, req any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestFrontEndsExplainNegation explains a tuple of a program with
// stratified negation, which the Magic-Sets transformation does not
// accept, through the facade, /api/explain and the REPL: all three answer
// from the full graph of the positive firings, with one probability and
// one tree.
func TestFrontEndsExplainNegation(t *testing.T) {
	const program = `0.9 r1: reach(X, Y) :- edge(X, Y), not blocked(X).
0.8 r2: reach(X, Z) :- reach(X, Y), edge(Y, Z).`
	const facts = `edge(a, b). edge(b, c). blocked(z).`

	prog, err := contribmax.ParseProgram(program)
	if err != nil {
		t.Fatal(err)
	}
	d, err := contribmax.LoadDatabase(facts)
	if err != nil {
		t.Fatal(err)
	}
	target, _ := contribmax.ParseAtom("reach(a, c)")
	tree, ok, err := contribmax.Explain(prog, d, target)
	if err != nil || !ok {
		t.Fatalf("facade Explain: ok=%v err=%v", ok, err)
	}
	if math.Abs(tree.Prob-0.72) > 1e-12 {
		t.Errorf("facade probability = %g, want 0.72", tree.Prob)
	}
	want := tree.Render(d.Symbols())

	ts := httptest.NewServer(server.New())
	defer ts.Close()
	code, body := postJSON(t, ts.URL+"/api/explain", server.ExplainRequest{Program: program, Facts: facts, Target: "reach(a, c)"})
	if code != http.StatusOK {
		t.Fatalf("/api/explain status %d: %s", code, body)
	}
	var out server.ExplainResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Derivable || out.Probability != tree.Prob || out.Tree != want {
		t.Errorf("/api/explain = %+v, want p=%g and tree\n%s", out, tree.Prob, want)
	}

	var transcript strings.Builder
	in := strings.Join(append(strings.Split(program, "\n"),
		"edge(a, b).", "edge(b, c).", "blocked(z).", ":explain reach(a, c)"), "\n") + "\n"
	if err := repl.New().Run(strings.NewReader(in), &transcript); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(transcript.String(), "> p = 0.72\n"+want) {
		t.Errorf("REPL :explain transcript lacks p = 0.72 and the tree\n%s\ntranscript:\n%s", want, transcript.String())
	}
}

// TestFrontEndsTargetOrder expands one ground target and one pattern
// through the facade (cmrun's path) and /api/solve: both list the ground
// target first, then the pattern's matches.
func TestFrontEndsTargetOrder(t *testing.T) {
	const program = `1.0 r1: tc(X, Y) :- edge(X, Y).
0.8 r2: tc(X, Y) :- tc(X, Z), tc(Z, Y).`
	const facts = `edge(a, b). edge(b, c). edge(x, y).`
	lines := []string{"tc(a, Y)", "tc(x, y)"}

	prog, _ := contribmax.ParseProgram(program)
	d, _ := contribmax.LoadDatabase(facts)
	var targets []contribmax.Atom
	for _, l := range lines {
		a, err := contribmax.ParseAtom(l)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, a)
	}
	ground, unmatched, err := contribmax.ExpandTargets(prog, d, targets)
	if err != nil || len(unmatched) != 0 {
		t.Fatalf("ExpandTargets: unmatched %v, err %v", unmatched, err)
	}
	var facade []string
	for _, a := range ground {
		facade = append(facade, a.String())
	}

	ts := httptest.NewServer(server.New())
	defer ts.Close()
	code, body := postJSON(t, ts.URL+"/api/solve", server.SolveRequest{Program: program, Facts: facts, Targets: lines, K: 1, RR: 100})
	if code != http.StatusOK {
		t.Fatalf("/api/solve status %d: %s", code, body)
	}
	var out server.SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	want := "tc(x, y); tc(a, b); tc(a, c)"
	if got := strings.Join(facade, "; "); got != want {
		t.Errorf("facade targets = %s, want %s", got, want)
	}
	if got := strings.Join(out.Targets, "; "); got != want {
		t.Errorf("/api/solve targets = %s, want %s", got, want)
	}
}

// TestFrontEndsUnknownAlgorithm: the server answers an unknown algorithm
// with 422 and the six valid names (cmrun's half is TestRunUnknownAlgorithm
// in cmd/cmrun).
func TestFrontEndsUnknownAlgorithm(t *testing.T) {
	ts := httptest.NewServer(server.New())
	defer ts.Close()
	code, body := postJSON(t, ts.URL+"/api/solve", server.SolveRequest{
		Program: tcSrc, Facts: `edge(a, b).`, Targets: []string{"tc(a, b)"}, Algorithm: "greedy",
	})
	if code != http.StatusUnprocessableEntity {
		t.Errorf("status = %d, want 422", code)
	}
	if !strings.Contains(string(body), "naive, magic, magics, magicg, exact, dnf") {
		t.Errorf("error %q does not name the six algorithms", body)
	}
}
