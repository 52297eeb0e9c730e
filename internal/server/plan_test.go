package server_test

import (
	"encoding/json"
	"testing"

	"contribmax/internal/server"
)

// TestSolveAPIReportsPlannerCounters checks that a Magic solve reports the
// join planner's counters over the HTTP surface: plans built for each
// adorned rule family and cache hits from compiling the same families for
// the other targets.
func TestSolveAPIReportsPlannerCounters(t *testing.T) {
	ts := newServer(t)
	req := server.SolveRequest{
		Program:   tcProgram,
		Facts:     tcFacts,
		Targets:   []string{"tc(a, b)", "tc(a, c)", "tc(b, c)", "tc(x, y)"},
		K:         1,
		RR:        200,
		Algorithm: "magic",
	}
	resp := postSolve(t, ts.URL, req)
	defer resp.Body.Close()
	var planned server.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&planned); err != nil {
		t.Fatal(err)
	}
	if planned.PlansBuilt == 0 || planned.PlanCacheHits == 0 {
		t.Errorf("solve reported no planner activity: built=%d hits=%d",
			planned.PlansBuilt, planned.PlanCacheHits)
	}
}

// TestSolveAPIReportsGroundings checks that a Magic^S solve reports its
// per-target route counters, and that other algorithms omit them.
func TestSolveAPIReportsGroundings(t *testing.T) {
	ts := newServer(t)
	for _, tc := range []struct {
		algo string
		want bool
	}{{"magics", true}, {"magic", false}} {
		resp := postSolve(t, ts.URL, server.SolveRequest{
			Program:   tcProgram,
			Facts:     tcFacts,
			Targets:   []string{"tc(a, c)"},
			K:         1,
			RR:        200,
			Algorithm: tc.algo,
		})
		var raw map[string]any
		err := json.NewDecoder(resp.Body).Decode(&raw)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		g, ok := raw["groundings"].(float64)
		if ok != tc.want || (tc.want && g != 1) {
			t.Errorf("%s: groundings = %v (present %v), want one target grounded: %v", tc.algo, raw["groundings"], ok, raw)
		}
	}
}
