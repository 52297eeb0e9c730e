// Package server implements the HTTP interface the paper's conclusions
// propose as future work: "a graphical interface, allowing users to easily
// specify their input/output tuple-set of interest, using patterns". It
// serves a minimal HTML form plus JSON endpoints:
//
//	GET  /            the form (program, facts, target patterns, k, ...)
//	POST /solve       form submission, renders an HTML result
//	POST /api/solve   JSON in/out (SolveRequest -> SolveResponse)
//	POST /api/explain JSON: most probable derivation of one tuple
//
// Synchronous solves are stateless: every request carries its program and
// facts. Asynchronous journaled solves add a small amount of bounded state
// (the run store):
//
//	POST /api/solve/start    202 + run ID; solve continues in background
//	GET  /api/solve/{id}     run status, result once done
//	GET  /solve/{id}/events  live journal as Server-Sent Events
//	GET  /journal/{id}       buffered journal replay as JSONL
//	GET  /metrics            obs registry (JSON, or ?format=prometheus)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"math/rand/v2"
	"net/http"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"contribmax/internal/analysis"
	"contribmax/internal/ast"
	"contribmax/internal/cm"
	"contribmax/internal/db"
	"contribmax/internal/im"
	"contribmax/internal/magic"
	"contribmax/internal/obs"
	"contribmax/internal/obs/journal"
	"contribmax/internal/parser"
	"contribmax/internal/prof"
	"contribmax/internal/provenance"
	"contribmax/internal/solvecache"
)

// SolveRequest is the JSON (and form) input for /api/solve.
type SolveRequest struct {
	// Program is probabilistic datalog source text.
	Program string `json:"program"`
	// Facts is fact-file source text.
	Facts string `json:"facts"`
	// Targets are output tuples or patterns (variables allowed; patterns
	// are expanded against the program's derived facts).
	Targets []string `json:"targets"`
	// K is the seed-set size (default 5).
	K int `json:"k"`
	// Algorithm: naive | magic | magics (default) | magicg | exact | dnf.
	// exact answers by lifted inference (no sampling error) when every
	// target's cone is hierarchical and falls back to magic sampling
	// otherwise (see SolveResponse.ExactFallback); dnf estimates by
	// Monte-Carlo possible-world sampling over derivation lineages.
	Algorithm string `json:"algorithm"`
	// RR is the number of RR sets (default 1000).
	RR int `json:"rr"`
	// MaxSeedsPerRelation is the diversification cap (0 = none).
	MaxSeedsPerRelation int `json:"maxSeedsPerRelation"`
	// Seed is the random seed (default 1).
	Seed uint64 `json:"seed"`
	// Prune drops rules provably outside the targets' dependency cone
	// before solving; results are byte-identical (see docs/ANALYSIS.md).
	Prune bool `json:"prune"`
	// Profile attaches a runtime profiler to the solve and returns the
	// EXPLAIN ANALYZE artifact in SolveResponse.Profile (and, for
	// asynchronous runs, at GET /api/solve/{id}/profile). Profiling never
	// changes results (see docs/OBSERVABILITY.md).
	Profile bool `json:"profile"`
}

// SolveResponse is the JSON output of /api/solve.
type SolveResponse struct {
	Algorithm       string   `json:"algorithm"`
	Seeds           []string `json:"seeds"`
	SeedGains       []int    `json:"seedGains"`
	EstContribution float64  `json:"estContribution"`
	Targets         []string `json:"targets"`
	RRSets          int      `json:"rrSets"`
	AvgGraphSize    float64  `json:"avgGraphSize"`
	PeakGraphSize   int      `json:"peakGraphSize"`
	RulesTotal      int      `json:"rulesTotal"`
	RulesPruned     int      `json:"rulesPruned"`
	PlansBuilt      int64    `json:"plansBuilt,omitempty"`
	PlanCacheHits   int64    `json:"planCacheHits,omitempty"`
	// Cache counters report how this solve used the server's shared solve
	// cache: hits replay a memoized WD graph or RR collection, misses paid
	// the full build. All zero (and omitted) when caching is disabled.
	CacheGraphHits   int64 `json:"cacheGraphHits,omitempty"`
	CacheGraphMisses int64 `json:"cacheGraphMisses,omitempty"`
	CacheRRHits      int64 `json:"cacheRRHits,omitempty"`
	CacheRRMisses    int64 `json:"cacheRRMisses,omitempty"`
	// ExactFallback, for algorithm "exact" or "dnf", names why the request
	// was answered by magic sampling instead (non-hierarchical cone,
	// lineage budget). Empty when the tier answered or for the samplers.
	ExactFallback string `json:"exactFallback,omitempty"`
	// Groundings counts the groundings a Magic^S solve drew RR sets from
	// (at most one per target predicate per batch, over the predicate's
	// targets the batch drew), GroundAborts those
	// dropped at their cap (see cm.Stats). Omitted when zero.
	Groundings   int     `json:"groundings,omitempty"`
	GroundAborts int     `json:"groundAborts,omitempty"`
	TotalMillis  float64 `json:"totalMillis"`
	// Diagnostics lists non-failing static-analysis findings for the
	// submitted program ("line:col: warning[CMnnn]: ..."). Failing
	// findings (errors, or warnings under Config.WarnAsError) reject the
	// request with a structured HTTP 400 body instead (see errorResponse).
	Diagnostics []string `json:"diagnostics,omitempty"`
	// RunID identifies the solve's journal when the solve was journaled
	// (asynchronous runs started via /api/solve/start). Empty for plain
	// synchronous solves.
	RunID string `json:"runId,omitempty"`
	// Profile is the solve's runtime profile (schema contribmax/profile/v1)
	// when SolveRequest.Profile was set; nil otherwise.
	Profile *prof.RuntimeProfile `json:"profile,omitempty"`
}

// ExplainRequest is the JSON input for /api/explain.
type ExplainRequest struct {
	Program string `json:"program"`
	Facts   string `json:"facts"`
	Target  string `json:"target"`
}

// ExplainResponse is the JSON output of /api/explain.
type ExplainResponse struct {
	Target      string  `json:"target"`
	Derivable   bool    `json:"derivable"`
	Probability float64 `json:"probability,omitempty"`
	Tree        string  `json:"tree,omitempty"`
}

// Config parameterizes the handler beyond its default stateless behavior.
type Config struct {
	// Obs, when non-nil, is threaded through every solve (engine, graph,
	// RR, and server.* metrics) and served as expvar-style JSON on
	// GET /metrics. Nil disables instrumentation and the endpoint.
	Obs *obs.Registry
	// SolveTimeout bounds each solve/explain request; a request past the
	// deadline is abandoned mid-phase and answered 503. 0 means no
	// server-imposed deadline (client disconnects still cancel).
	SolveTimeout time.Duration
	// WarnAsError makes warning-severity static-analysis findings reject
	// requests, matching cmrun/cmlint's -W error.
	WarnAsError bool
	// CacheBytes bounds the fingerprint-keyed solve cache shared by every
	// request (memoized WD graphs and finalized RR collections). 0 uses the
	// solvecache default (256 MiB); a negative value disables caching.
	CacheBytes int64
	// MaxConcurrentSolves bounds how many solves execute at once. Excess
	// requests queue (up to MaxQueueDepth, waiting at most QueueWait) and
	// beyond that are shed with 429 + Retry-After. 0 means unlimited.
	MaxConcurrentSolves int
	// MaxQueueDepth bounds how many solves may wait for a pool slot
	// (default 2 x MaxConcurrentSolves).
	MaxQueueDepth int
	// QueueWait bounds how long a queued solve waits for a slot before
	// being shed (default 10s). Also the Retry-After hint on 429s.
	QueueWait time.Duration
	// TenantQuota bounds concurrent solves per tenant, identified by the
	// X-Tenant request header ("default" when absent). Over-quota requests
	// are shed with 429. 0 disables per-tenant quotas.
	TenantQuota int
	// MaxRuns bounds the asynchronous run store (default 128); the
	// least-recently-accessed finished run is evicted when full.
	MaxRuns int
}

// New returns the HTTP handler with default configuration (no metrics, no
// timeout).
func New() http.Handler { return NewWith(Config{}) }

// NewWith returns the HTTP handler with cfg applied.
func NewWith(cfg Config) http.Handler {
	s := &server{
		cfg:  cfg,
		runs: newRunStore(cfg.MaxRuns, cfg.Obs),
		pool: newSolvePool(cfg),
	}
	if cfg.CacheBytes >= 0 {
		s.cache = solvecache.NewWith(cfg.CacheBytes, cfg.Obs)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", handleForm)
	mux.HandleFunc("POST /solve", s.handleSolveForm)
	mux.HandleFunc("POST /api/solve", func(w http.ResponseWriter, r *http.Request) { serveJSON(s, w, r, s.solve) })
	mux.HandleFunc("POST /api/solve/batch", s.handleSolveBatch)
	mux.HandleFunc("POST /api/explain", func(w http.ResponseWriter, r *http.Request) { serveJSON(s, w, r, s.explain) })
	mux.HandleFunc("POST /api/solve/start", s.handleSolveStart)
	mux.HandleFunc("GET /api/solve/{id}", s.handleSolveStatus)
	mux.HandleFunc("GET /api/solve/{id}/profile", s.handleSolveProfile)
	mux.HandleFunc("GET /solve/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /journal/{id}", s.handleJournal)
	// The metrics endpoint sits outside the instrumented wrapper so that
	// scrapes do not perturb the request counters they report.
	outer := http.NewServeMux()
	outer.HandleFunc("GET /metrics", s.handleMetrics)
	outer.Handle("/", s.instrument(mux))
	return outer
}

type server struct {
	cfg   Config
	runs  *runStore
	cache *solvecache.Cache // nil when Config.CacheBytes < 0
	pool  *solvePool
}

// instrument wraps h with the server.* request metrics. With a nil
// registry the handler is returned unwrapped — zero overhead.
func (s *server) instrument(h http.Handler) http.Handler {
	reg := s.cfg.Obs
	if reg == nil {
		return h
	}
	requests := reg.Counter(obs.ServerRequests)
	reqErrors := reg.Counter(obs.ServerErrors)
	inflight := reg.Gauge(obs.ServerInflight)
	latency := reg.Histogram(obs.ServerLatencyNs)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		inflight.Add(1)
		defer inflight.Add(-1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(sw, r)
		latency.ObserveSince(start)
		if sw.code >= 400 {
			reqErrors.Inc()
		}
	})
}

// statusWriter records the response code for the error counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so SSE streaming works through the
// instrumented handler chain.
func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// requestCtx derives the context a solve runs under: the request's own
// context (canceled when the client goes away) plus the configured
// timeout.
func (s *server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.SolveTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.SolveTimeout)
	}
	return r.Context(), func() {}
}

// httpStatus maps a solve error to a response code: cancellation and
// deadline expiry are the server's condition (503), everything else is a
// problem with the submitted request (422).
func httpStatus(err error) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusUnprocessableEntity
}

// analysisError carries the full diagnostic list when the static-analysis
// gate rejects a request, so handlers can answer with a structured body
// instead of flattened text.
type analysisError struct {
	diags []analysis.Diagnostic
	// failSeverity is the severity that caused the rejection (Error, or
	// Warning under Config.WarnAsError).
	failSeverity analysis.Severity
}

func (e *analysisError) Error() string {
	var lines []string
	for _, d := range e.diags {
		if d.Severity >= e.failSeverity {
			lines = append(lines, d.String())
		}
	}
	return "program rejected by static analysis:\n" + strings.Join(lines, "\n")
}

// diagnosticJSON is the wire shape of one diagnostic in error bodies,
// mirroring cmlint -json (1-based positions, zero line = unknown).
type diagnosticJSON struct {
	Severity string `json:"severity"`
	Code     string `json:"code"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// errorResponse is the JSON body of a structured request rejection.
type errorResponse struct {
	Error       string           `json:"error"`
	Diagnostics []diagnosticJSON `json:"diagnostics,omitempty"`
}

// writeSolveError answers a failed solve/explain. Load-shed refusals
// become 429 with a Retry-After hint; static-analysis rejections become
// HTTP 400 with the machine-readable diagnostic list (every finding,
// failing or not, so clients see the full report); everything else keeps
// the plain-text httpStatus mapping.
func writeSolveError(w http.ResponseWriter, err error) {
	var se *shedError
	if errors.As(err, &se) {
		w.Header().Set("Retry-After", strconv.Itoa(se.retrySeconds()))
		http.Error(w, se.Error(), http.StatusTooManyRequests)
		return
	}
	var ae *analysisError
	if !errors.As(err, &ae) {
		http.Error(w, err.Error(), httpStatus(err))
		return
	}
	body := errorResponse{Error: ae.Error()}
	for _, d := range ae.diags {
		body.Diagnostics = append(body.Diagnostics, diagnosticJSON{
			Severity: d.Severity.String(),
			Code:     string(d.Code),
			Line:     d.Pos.Line,
			Col:      d.Pos.Col,
			Message:  d.Message,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	json.NewEncoder(w).Encode(body)
}

// maxRequestBytes bounds every JSON request body. Programs and facts travel
// inline, so the bound sits far above any realistic instance; it exists so
// an oversized or endless body is refused before the decoder buffers it.
const maxRequestBytes = 8 << 20

// decodeRequest decodes r's JSON body into v. A body beyond maxRequestBytes
// is answered 413 and a malformed one 400; on false the response has been
// written and the handler returns.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		http.Error(w, fmt.Sprintf("request body exceeds the limit of %d bytes", tooLarge.Limit),
			http.StatusRequestEntityTooLarge)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
	return false
}

// preflight parses and statically analyzes a solve request without running
// it, so asynchronous starts can reject bad programs synchronously with the
// same structured 400 the synchronous endpoint produces — instead of
// burning a run slot on a solve that errors instantly. The run solves the
// returned parse.
func (s *server) preflight(req SolveRequest) (*parsedRequest, error) {
	p, err := parseRequest(req.Program, req.Facts)
	if err != nil {
		return nil, err
	}
	targets, _ := parseTargets(req.Targets)
	if _, err := s.analyze(p, targets); err != nil {
		return nil, err
	}
	return p, nil
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Obs == nil {
		http.Error(w, "metrics disabled", http.StatusNotFound)
		return
	}
	s.cfg.Obs.UpdateGoRuntime()
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		s.cfg.Obs.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.cfg.Obs.WriteJSON(w)
}

// parsedRequest holds a request's program and facts parsed exactly once,
// plus the content hashes that identify them to the solve cache. Batch
// solving runs many parameter variations against one parsedRequest, and
// an asynchronous run solves the parse its start request checked.
type parsedRequest struct {
	prog     *ast.Program
	database *db.Database
	// progID and factsID fingerprint the submitted source text, so
	// identical submissions — across requests and across time — resolve to
	// the same cache entries.
	progID  string
	factsID string
}

// parseRequest parses program and facts source text once.
func parseRequest(program, facts string) (*parsedRequest, error) {
	prog, err := parser.ParseProgramLoose(program)
	if err != nil {
		return nil, fmt.Errorf("program: %w", err)
	}
	parsed, err := parser.ParseFacts(facts)
	if err != nil {
		return nil, fmt.Errorf("facts: %w", err)
	}
	database := db.NewDatabase()
	if _, err := database.InsertAll(parsed); err != nil {
		return nil, fmt.Errorf("facts: %w", err)
	}
	return &parsedRequest{
		prog:     prog,
		database: database,
		progID:   solvecache.HashText(program),
		factsID:  solvecache.HashText(facts),
	}, nil
}

// solve parses and runs one synchronous CM request.
func (s *server) solve(ctx context.Context, req SolveRequest) (*SolveResponse, error) {
	p, err := parseRequest(req.Program, req.Facts)
	if err != nil {
		return nil, err
	}
	return s.solveParsed(ctx, p, req, nil)
}

// solveParsed runs one CM request against an already-parsed program and
// database. The parse may be shared: batch solving calls this once per
// sweep point against one parsedRequest, so every point resolves to the
// same cache identity and the WD graph (and, for k-sweeps, the RR
// collection) is built once and replayed. jr, when non-nil, receives the
// solve's structured event stream (asynchronous runs pass their run
// journal).
func (s *server) solveParsed(ctx context.Context, p *parsedRequest, req SolveRequest, jr *journal.Journal) (*SolveResponse, error) {
	if req.K <= 0 {
		req.K = 5
	}
	if req.RR <= 0 {
		req.RR = 1000
	}
	if req.Algorithm == "" {
		req.Algorithm = "magics"
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	atoms, warnings, err := s.gate(p, req.Targets)
	if err != nil {
		return nil, err
	}
	targets, _, err := cm.ExpandTargets(ctx, p.prog, p.database, atoms)
	if err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("no targets (patterns matched no derived facts?)")
	}

	in := cm.Input{Program: p.prog, DB: p.database, T2: targets, K: req.K}
	opts := cm.Options{
		Theta:               im.ThetaSpec{Explicit: req.RR},
		MaxSeedsPerRelation: req.MaxSeedsPerRelation,
		Rand:                rand.New(rand.NewPCG(req.Seed, req.Seed^0x5EED)),
		// The request was just analyzed against this schema and these
		// targets; skip the identical in-algorithm gate.
		SkipAnalysis: true,
		Prune:        req.Prune,
		Context:      ctx,
		Obs:          s.cfg.Obs,
		Journal:      jr,
		Cache:        s.cache,
		// The rng is fully determined by the request seed, so it is safe to
		// assert its identity to the cache: same (facts, program, seed)
		// means the same walk stream.
		CacheID: solvecache.Identity{
			Database: p.factsID,
			Program:  p.progID,
			Rand:     "seed:" + strconv.FormatUint(req.Seed, 10),
		},
	}
	if req.Profile {
		opts.Profile = prof.New()
	}
	var res *cm.Result
	// The pprof label makes per-algorithm cost visible in CPU profiles
	// taken through /debug/pprof while solves are in flight.
	pprof.Do(ctx, pprof.Labels("cm_algorithm", req.Algorithm), func(ctx context.Context) {
		opts.Context = ctx
		res, err = cm.Solve(req.Algorithm, in, opts)
	})
	if err != nil {
		return nil, err
	}

	out := &SolveResponse{
		Algorithm:        res.Algorithm,
		SeedGains:        res.SeedGains,
		EstContribution:  res.EstContribution,
		RRSets:           res.Stats.NumRR,
		AvgGraphSize:     res.Stats.AvgGraphSize(),
		PeakGraphSize:    res.Stats.PeakResidentSize,
		RulesTotal:       res.Stats.RulesTotal,
		RulesPruned:      res.Stats.RulesPruned,
		PlansBuilt:       res.Stats.PlansBuilt,
		PlanCacheHits:    res.Stats.PlanCacheHits,
		CacheGraphHits:   res.Stats.CacheGraphHits,
		CacheGraphMisses: res.Stats.CacheGraphMisses,
		CacheRRHits:      res.Stats.CacheRRHits,
		CacheRRMisses:    res.Stats.CacheRRMisses,
		ExactFallback:    res.Stats.ExactFallback,
		Groundings:       res.Stats.Groundings,
		GroundAborts:     res.Stats.GroundAborts,
		TotalMillis:      float64(res.Stats.TotalTime) / float64(time.Millisecond),
		RunID:            jr.Run(),
		Profile:          opts.Profile.Report(),
	}
	for _, s := range res.Seeds {
		out.Seeds = append(out.Seeds, s.String())
	}
	for _, a := range targets {
		out.Targets = append(out.Targets, a.String())
	}
	out.Diagnostics = warnings
	return out, nil
}

// parseTargets parses a request's target lines, skipping blank ones. It
// returns every line that parses, so the analyzer sees all their
// predicates as roots, and the first parse error.
func parseTargets(lines []string) ([]ast.Atom, error) {
	var atoms []ast.Atom
	var first error
	for _, line := range lines {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		a, err := parser.ParseAtom(line)
		if err != nil {
			if first == nil {
				first = fmt.Errorf("target %q: %w", line, err)
			}
			continue
		}
		atoms = append(atoms, a)
	}
	return atoms, first
}

// analyze runs the static analyzer over a request's program against its
// facts, with the targets' predicates as roots. Errors, and warnings under
// Config.WarnAsError, reject the request with an *analysisError (rendered
// by writeSolveError as a structured 400); the other findings come back as
// rendered strings for SolveResponse.Diagnostics.
func (s *server) analyze(p *parsedRequest, targets []ast.Atom) ([]string, error) {
	diags := analysis.Analyze(p.prog, analysis.OptionsFor(p.database, targets))
	failSeverity := analysis.Error
	if s.cfg.WarnAsError {
		failSeverity = analysis.Warning
	}
	var warnings []string
	failing := false
	for _, d := range diags {
		if d.Severity >= failSeverity {
			failing = true
		} else {
			warnings = append(warnings, d.String())
		}
	}
	if failing {
		return nil, &analysisError{diags: diags, failSeverity: failSeverity}
	}
	return warnings, nil
}

// gate parses a request's target lines and analyzes its program for them
// (see analyze). An analysis rejection takes precedence over a target line
// that does not parse.
func (s *server) gate(p *parsedRequest, lines []string) ([]ast.Atom, []string, error) {
	targets, perr := parseTargets(lines)
	warnings, err := s.analyze(p, targets)
	if err != nil {
		return nil, nil, err
	}
	return targets, warnings, perr
}

// explain runs one explanation request.
func (s *server) explain(ctx context.Context, req ExplainRequest) (*ExplainResponse, error) {
	p, err := parseRequest(req.Program, req.Facts)
	if err != nil {
		return nil, err
	}
	targets, _, err := s.gate(p, []string{req.Target})
	if err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, errors.New("no target")
	}
	target := targets[0]
	g, root, found, err := magic.RelevantGraph(ctx, p.prog, p.database, target)
	if err != nil {
		return nil, err
	}
	out := &ExplainResponse{Target: target.String()}
	if !found {
		return out, nil // not derivable
	}
	tree, ok := provenance.BestDerivation(g, root)
	if !ok {
		return out, nil
	}
	out.Derivable = true
	out.Probability = tree.Prob
	out.Tree = tree.Render(p.database.Symbols())
	return out, nil
}

// serveJSON answers one JSON request of a synchronous endpoint: it decodes
// the body, runs call under the request's context and a pool slot, and
// writes the JSON response or the error.
func serveJSON[Req, Resp any](s *server, w http.ResponseWriter, r *http.Request, call func(context.Context, Req) (Resp, error)) {
	var req Req
	if !decodeRequest(w, r, &req) {
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	release, err := s.pool.acquire(ctx, tenantOf(r.Header))
	if err != nil {
		writeSolveError(w, err)
		return
	}
	defer release()
	res, err := call(ctx, req)
	if err != nil {
		writeSolveError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}

func handleForm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	pageTmpl.Execute(w, pageData{Req: exampleRequest()})
}

func (s *server) handleSolveForm(w http.ResponseWriter, r *http.Request) {
	if err := r.ParseForm(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req := SolveRequest{
		Program:   r.FormValue("program"),
		Facts:     r.FormValue("facts"),
		Targets:   strings.Split(r.FormValue("targets"), "\n"),
		Algorithm: r.FormValue("algorithm"),
	}
	fmt.Sscanf(r.FormValue("k"), "%d", &req.K)
	fmt.Sscanf(r.FormValue("rr"), "%d", &req.RR)
	fmt.Sscanf(r.FormValue("diverse"), "%d", &req.MaxSeedsPerRelation)
	fmt.Sscanf(r.FormValue("seed"), "%d", &req.Seed)

	ctx, cancel := s.requestCtx(r)
	defer cancel()
	data := pageData{Req: req}
	if release, err := s.pool.acquire(ctx, tenantOf(r.Header)); err != nil {
		data.Error = err.Error()
	} else {
		res, err := s.solve(ctx, req)
		release()
		if err != nil {
			data.Error = err.Error()
		} else {
			data.Res = res
		}
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	pageTmpl.Execute(w, data)
}

type pageData struct {
	Req   SolveRequest
	Res   *SolveResponse
	Error string
}

// exampleRequest pre-fills the form with the paper's running example.
func exampleRequest() SolveRequest {
	return SolveRequest{
		Program: `1.0 r0: dealsWith(A, B) :- dealsWith0(A, B).
0.8 r1: dealsWith(A, B) :- dealsWith(B, A).
0.7 r2: dealsWith(A, B) :- exports(A, C), imports(B, C).
0.5 r3: dealsWith(A, B) :- dealsWith(A, F), dealsWith(F, B).`,
		Facts: `exports(france, wine).    exports(france, vinegar). exports(france, oil).
exports(cuba, tobacco).   exports(cuba, sugar).     exports(cuba, nickel).
exports(russia, gas).
imports(germany, wine).   imports(usa, vinegar).    imports(pakistan, oil).
imports(india, tobacco).  imports(denmark, sugar).  imports(iran, nickel).
imports(ukraine, gas).
dealsWith0(france, cuba).`,
		Targets:   []string{"dealsWith(usa, iran)", "dealsWith(russia, ukraine)"},
		K:         2,
		Algorithm: "magics",
		RR:        1000,
		Seed:      1,
	}
}

var pageTmpl = template.Must(template.New("page").Funcs(template.FuncMap{"algorithms": cm.AlgorithmNames}).Parse(`<!DOCTYPE html>
<html><head><title>contribmax</title><style>
body { font-family: sans-serif; margin: 2em auto; max-width: 60em; }
textarea { width: 100%; font-family: monospace; }
label { display: block; margin-top: 0.6em; font-weight: bold; }
.row input, .row select { margin-right: 1.2em; }
.err { color: #b00; white-space: pre-wrap; }
.res { background: #f4f4f4; padding: 1em; margin-top: 1em; }
</style></head><body>
<h1>Contribution Maximization</h1>
<p>Which <i>k</i> input facts contribute the most to these output tuples?
Targets may be patterns (variables match derived facts).</p>
<form method="post" action="/solve">
<label>Probabilistic datalog program</label>
<textarea name="program" rows="7">{{.Req.Program}}</textarea>
<label>Facts</label>
<textarea name="facts" rows="9">{{.Req.Facts}}</textarea>
<label>Targets (one per line; patterns allowed, e.g. dealsWith(usa, Y))</label>
<textarea name="targets" rows="3">{{range .Req.Targets}}{{.}}
{{end}}</textarea>
<div class="row">
<label>Options</label>
k <input name="k" size="3" value="{{.Req.K}}">
algorithm <select name="algorithm">
{{range algorithms}}  <option{{if eq $.Req.Algorithm .}} selected{{end}}>{{.}}</option>
{{end}}</select>
RR sets <input name="rr" size="6" value="{{.Req.RR}}">
max/relation <input name="diverse" size="3" value="{{.Req.MaxSeedsPerRelation}}">
seed <input name="seed" size="6" value="{{.Req.Seed}}">
<button type="submit">Solve</button>
</div>
</form>
{{if .Error}}<div class="res err">{{.Error}}</div>{{end}}
{{if .Res}}<div class="res">
<b>{{.Res.Algorithm}}</b>: estimated contribution {{printf "%.3f" .Res.EstContribution}}
to {{len .Res.Targets}} targets ({{.Res.RRSets}} RR sets,
peak graph {{.Res.PeakGraphSize}}, {{printf "%.1f" .Res.TotalMillis}} ms)
<ol>{{range .Res.Seeds}}<li><code>{{.}}</code></li>{{end}}</ol>
</div>{{end}}
</body></html>`))
