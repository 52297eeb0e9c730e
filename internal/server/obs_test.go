package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"contribmax/internal/obs"
	"contribmax/internal/server"
)

func solveBody(t *testing.T, targets []string, rr int, algo string) *bytes.Reader {
	t.Helper()
	body, err := json.Marshal(server.SolveRequest{
		Program:   tcProgram,
		Facts:     tcFacts,
		Targets:   targets,
		K:         1,
		RR:        rr,
		Algorithm: algo,
	})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(body)
}

// TestMetricsEndpoint: with a registry configured, /metrics serves live
// expvar-style JSON whose counters advance as solves run; without one, the
// endpoint is absent (404).
func TestMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	ts := httptest.NewServer(server.NewWith(server.Config{Obs: reg}))
	defer ts.Close()

	readMetrics := func() map[string]any {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics status = %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Errorf("content type = %q", ct)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	before := readMetrics()
	if _, ok := before["uptime_seconds"]; !ok {
		t.Error("metrics missing uptime_seconds")
	}

	resp, err := http.Post(ts.URL+"/api/solve", "application/json", solveBody(t, []string{"tc(a, c)"}, 300, "magics"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d", resp.StatusCode)
	}

	after := readMetrics()
	for _, key := range []string{obs.ServerRequests, obs.CMSolves, obs.RRSets} {
		v, ok := after[key].(float64)
		if !ok || v <= 0 {
			t.Errorf("metric %s = %v, want > 0", key, after[key])
		}
	}
	if after[obs.ServerInflight].(float64) != 0 {
		t.Errorf("inflight = %v after requests finished", after[obs.ServerInflight])
	}

	// Unconfigured server: no metrics endpoint.
	plain := httptest.NewServer(server.New())
	defer plain.Close()
	resp2, err := http.Get(plain.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("GET /metrics without registry: status = %d, want 404", resp2.StatusCode)
	}
}

// TestSolveTimeoutReturns503 is the server-robustness satellite: a solve
// that cannot finish inside Config.SolveTimeout must come back promptly as
// 503 Service Unavailable instead of hogging the connection, because the
// deadline propagates into the RR loops.
func TestSolveTimeoutReturns503(t *testing.T) {
	// The timeout is generous enough that the (small) follow-up request
	// finishes inside it even under the race detector, while the huge
	// first request cannot come close.
	ts := httptest.NewServer(server.NewWith(server.Config{SolveTimeout: time.Second}))
	defer ts.Close()

	// MagicCM builds a target's subgraph once and walks it per RR set. On a
	// 40-edge path the subgraph of tc(n0, n40) holds every tc fact of the
	// path and about 11k rule instantiations, so each walk takes a fraction
	// of a millisecond and 200k of them take minutes, far beyond the
	// one-second deadline.
	var chain strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&chain, "edge(n%d, n%d). ", i, i+1)
	}
	heavy, err := json.Marshal(server.SolveRequest{
		Program:   tcProgram,
		Facts:     chain.String(),
		Targets:   []string{"tc(n0, n40)"},
		K:         1,
		RR:        200_000,
		Algorithm: "magic",
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.Post(ts.URL+"/api/solve", "application/json", bytes.NewReader(heavy))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (body %q), want 503", resp.StatusCode, body)
	}
	if elapsed > 5*time.Second {
		t.Errorf("timeout surfaced after %v, want prompt return", elapsed)
	}

	// The server stays healthy for the next (feasible) request.
	resp2, err := http.Post(ts.URL+"/api/solve", "application/json", solveBody(t, []string{"tc(a, c)"}, 200, "magics"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("follow-up solve status = %d", resp2.StatusCode)
	}
}

// TestClientDisconnectCancelsSolve: when the client goes away mid-solve,
// the request context cancels the solve; the server must remain healthy.
func TestClientDisconnectCancelsSolve(t *testing.T) {
	reg := obs.NewRegistry()
	ts := httptest.NewServer(server.NewWith(server.Config{Obs: reg}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/api/solve",
		solveBody(t, []string{"tc(a, c)"}, 2_000_000, "magic"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		// A response beat the client deadline — unexpected for this θ.
		resp.Body.Close()
		t.Fatal("expected client-side deadline, got a response")
	}

	// Give the handler a moment to unwind, then verify the server answers.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if m[obs.ServerInflight].(float64) == 0 {
			if errs, ok := m[obs.ServerErrors].(float64); !ok || errs < 1 {
				t.Errorf("server.errors = %v, want >= 1 after aborted solve", m[obs.ServerErrors])
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("aborted solve still in flight after 5s")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
