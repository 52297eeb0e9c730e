package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// maxBatchSolves bounds one batch request. A batch holds one pool slot for
// its whole duration, so the bound caps how long a slot can be monopolized.
const maxBatchSolves = 64

// BatchSolveRequest is the JSON input for /api/solve/batch: one program
// and fact set, solved under many parameter variations (k-sweeps, seed
// sweeps, algorithm comparisons). The program and facts are parsed once
// and every variation resolves to the same solve-cache identity, so the
// WD graph — and, for k-sweeps, the RR collection — is built once and
// shared across the whole batch.
type BatchSolveRequest struct {
	Program string `json:"program"`
	Facts   string `json:"facts"`
	// Solves are the per-variation parameters. Program and Facts must be
	// empty on every item (they come from the batch envelope); everything
	// else (targets, k, algorithm, rr, seed, ...) varies freely.
	Solves []SolveRequest `json:"solves"`
}

// BatchItem is one variation's outcome. Exactly one field is set.
type BatchItem struct {
	Response *SolveResponse `json:"response,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// BatchSolveResponse is the JSON output of /api/solve/batch. Results[i]
// corresponds to Solves[i]; one failing variation does not fail the batch.
type BatchSolveResponse struct {
	Results []BatchItem `json:"results"`
	// Aggregated solve-cache counters over the whole batch. A k-sweep over
	// one instance reports one rr miss and len(Solves)-1 rr hits.
	CacheGraphHits   int64   `json:"cacheGraphHits,omitempty"`
	CacheGraphMisses int64   `json:"cacheGraphMisses,omitempty"`
	CacheRRHits      int64   `json:"cacheRRHits,omitempty"`
	CacheRRMisses    int64   `json:"cacheRRMisses,omitempty"`
	TotalMillis      float64 `json:"totalMillis"`
}

func (s *server) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchSolveRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if len(req.Solves) == 0 {
		http.Error(w, "batch has no solves", http.StatusBadRequest)
		return
	}
	if len(req.Solves) > maxBatchSolves {
		http.Error(w, fmt.Sprintf("batch of %d solves exceeds the limit of %d",
			len(req.Solves), maxBatchSolves), http.StatusBadRequest)
		return
	}
	for i, item := range req.Solves {
		if item.Program != "" || item.Facts != "" {
			http.Error(w, fmt.Sprintf(
				"solves[%d]: program and facts belong on the batch envelope", i),
				http.StatusBadRequest)
			return
		}
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	// The whole batch runs under one pool slot: it is one client's workload,
	// and the k-sweep sharing below relies on the items running in order.
	release, err := s.pool.acquire(ctx, tenantOf(r.Header))
	if err != nil {
		writeSolveError(w, err)
		return
	}
	defer release()

	start := time.Now()
	p, err := parseRequest(req.Program, req.Facts)
	if err != nil {
		writeSolveError(w, err)
		return
	}
	out := BatchSolveResponse{Results: make([]BatchItem, len(req.Solves))}
	for i, item := range req.Solves {
		if err := ctx.Err(); err != nil {
			out.Results[i] = BatchItem{Error: err.Error()}
			continue
		}
		res, err := s.solveParsed(ctx, p, item, nil)
		if err != nil {
			out.Results[i] = BatchItem{Error: err.Error()}
			continue
		}
		out.Results[i] = BatchItem{Response: res}
		out.CacheGraphHits += res.CacheGraphHits
		out.CacheGraphMisses += res.CacheGraphMisses
		out.CacheRRHits += res.CacheRRHits
		out.CacheRRMisses += res.CacheRRMisses
	}
	out.TotalMillis = float64(time.Since(start)) / float64(time.Millisecond)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
