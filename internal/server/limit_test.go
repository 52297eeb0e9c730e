package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestRequestBodyLimit checks that a body beyond maxRequestBytes is refused
// with 413, naming the limit, on the single and batch solve endpoints, and
// that normal requests to the same endpoints still succeed.
func TestRequestBodyLimit(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	post := func(path string, body io.Reader) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(msg)
	}

	program := "1.0 r1: tc(X, Y) :- edge(X, Y).\n0.8 r2: tc(X, Y) :- tc(X, Z), tc(Z, Y)."
	huge, err := json.Marshal(SolveRequest{
		Program: program,
		Facts:   strings.Repeat("edge(a, b). ", maxRequestBytes/12+1),
		Targets: []string{"tc(a, b)"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/api/solve", "/api/solve/batch"} {
		code, msg := post(path, bytes.NewReader(huge))
		if code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: over-limit body got %d, want 413: %s", path, code, msg)
		}
		if !strings.Contains(msg, strconv.Itoa(maxRequestBytes)) {
			t.Errorf("%s: 413 message %q does not name the limit", path, msg)
		}
	}

	single := SolveRequest{Program: program, Facts: "edge(a, b). edge(b, c).",
		Targets: []string{"tc(a, c)"}, K: 1, RR: 50, Algorithm: "magic"}
	batch := BatchSolveRequest{Program: single.Program, Facts: single.Facts,
		Solves: []SolveRequest{{Targets: single.Targets, K: 1, RR: 50, Algorithm: "magic"}}}
	for path, req := range map[string]any{"/api/solve": single, "/api/solve/batch": batch} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if code, msg := post(path, bytes.NewReader(body)); code != http.StatusOK {
			t.Errorf("%s: normal request got %d: %s", path, code, msg)
		}
	}
}
