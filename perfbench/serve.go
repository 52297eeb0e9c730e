package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"contribmax/internal/analysis"
	"contribmax/internal/ast"
	"contribmax/internal/engine"
	"contribmax/internal/obs"
	"contribmax/internal/parser"
	"contribmax/internal/server"
)

// serveFamily is one kind of instance in the serve-mix pool.
type serveFamily struct {
	spec spec
	algo string
	// rr is the request's θ. Magic^S compiles once per RR set and NaiveCM
	// once per solve, so Magic^S families ask for fewer RR sets.
	rr int
	// count is how many instances of the family the pool holds. NaiveCM
	// families get enough that a fresh request rarely finds its graph
	// cached, so fresh requests are cold and repeats are the warm path.
	count int
}

// serveFamilies are the small instances serve-mix requests carry: each of
// the four generators with both solvers the server runs by default. The
// repository holds no record of real traffic, so the families, sizes and
// the mix below are chosen to exercise the server's paths, not measured.
var serveFamilies = []serveFamily{
	{spec{"TC", 12}, "magics", 300, 6},
	{spec{"TC", 12}, "naive", 1000, 20},
	{spec{"Explain", 40}, "magics", 300, 6},
	{spec{"Explain", 60}, "naive", 1000, 20},
	{spec{"IRIS", 60}, "magics", 300, 6},
	{spec{"IRIS", 80}, "naive", 1000, 20},
	{spec{"AMIE", 4}, "magics", 300, 6},
	{spec{"AMIE", 4}, "naive", 1000, 20},
}

const (
	// serveTargets and serveK keep a request small: ten ground targets, or
	// a pattern matching at most maxPatternMatches facts, and three seeds.
	serveTargets = 10
	serveK       = 3
	// serveTenants is how many X-Tenant values requests carry. The server
	// runs without quotas, so tenants exercise the tagging path only.
	serveTenants = 4
	// serveScoreSamples is the oracle's sample count per scored answer.
	serveScoreSamples = 1000
	// genLagLimit marks a run invalid: the generator, not the server, fell
	// behind its schedule.
	genLagLimit = 50 * time.Millisecond
	// ladderStep is how long each max_rps_under_slo rung runs.
	ladderStep = 5 * time.Second
)

// mixCycle is the request mix in the order it repeats. The shares are
// chosen, one per server path:
//
//   - 35% fresh single solves: the cold path, parse to greedy selection;
//   - 20% repeats of an earlier request: the RR-cache hit, which still
//     re-parses, re-loads and re-analyzes its inputs;
//   - 20% k-sweep batches: /api/solve/batch, one parse and one RR
//     collection shared by four k;
//   - 20% pattern targets: the server's target expansion, a fixpoint
//     before the solve;
//   - 5% re-solves of an earlier request's instance with a new seed: a
//     graph-cache hit with fresh walks for NaiveCM.
//
// A fixed order keeps every run's shares exact. With about a quarter of the
// requests on the warm path, p50 falls inside the cold solves. The measured
// split is printed with every run.
var mixCycle = []string{
	"single", "batch", "single", "repeat", "pattern", "single", "batch", "repeat", "reseed", "pattern",
	"single", "batch", "repeat", "single", "pattern", "single", "batch", "repeat", "pattern", "single",
}

// repeatLag is how many fresh requests back a repeat reaches: at 10 req/s
// that is about two seconds, long after the first request was answered, so
// a repeat hits the cache instead of joining the in-flight solve.
const repeatLag = 8

// batchKs is the k-sweep a batch request runs.
var batchKs = []int{1, 2, 3, 4}

// serveConfig holds the serve-mix constants fixed in BENCHMARK.json.
type serveConfig struct {
	rate   float64
	ladder []float64
	sloMs  float64
}

// serveReq is one scheduled request.
type serveReq struct {
	due    time.Duration
	kind   string // single | pattern | batch
	repeat bool   // a copy of an earlier request
	inst   int
	path   string
	body   []byte
	tenant string
	// ks are the k of each solve in the request; targets its target lines.
	ks      []int
	targets []string
}

// requestGen draws the request sequence. Its shape is fixed: the kinds
// follow mixCycle, fresh requests visit the families in turn and each
// family's instances round robin, and a repeat copies the request
// repeatLag fresh requests back. The workload rng draws each fresh
// request's solve seed and tenant, so fresh requests miss the RR cache and
// runs with different seeds sample different RR streams over the same
// traffic.
type requestGen struct {
	rng      *rand.Rand
	insts    []*instance
	fams     []serveFamily
	byFamily [][]int // pool indexes of each family's instances
	drawn    int
	fresh    int
	issued   []*serveReq // fresh requests, in issue order
}

func newRequestGen(rng *rand.Rand, insts []*instance, fams []serveFamily) *requestGen {
	g := &requestGen{rng: rng, insts: insts, fams: fams}
	index := map[serveFamily]int{}
	for i, f := range fams {
		fi, ok := index[f]
		if !ok {
			fi = len(g.byFamily)
			index[f] = fi
			g.byFamily = append(g.byFamily, nil)
		}
		g.byFamily[fi] = append(g.byFamily[fi], i)
	}
	return g
}

func (g *requestGen) next(due time.Duration) *serveReq {
	kind := mixCycle[g.drawn%len(mixCycle)]
	g.drawn++
	if kind == "repeat" && len(g.issued) > 0 {
		// Long enough ago to be answered, so a repeat is a cache hit.
		r := *g.issued[max(0, len(g.issued)-repeatLag)]
		r.due, r.repeat = due, true
		return &r
	}
	var i int
	if kind == "reseed" && len(g.issued) > 0 {
		i, kind = g.issued[max(0, len(g.issued)-repeatLag)].inst, "single"
	} else {
		fam := g.byFamily[g.fresh%len(g.byFamily)]
		i = fam[(g.fresh/len(g.byFamily))%len(fam)]
		g.fresh++
	}
	seed := g.rng.Uint64() | 1
	in, f := g.insts[i], g.fams[i]
	r := &serveReq{due: due, inst: i, tenant: fmt.Sprintf("tenant%d", g.rng.IntN(serveTenants))}
	targets := make([]string, len(in.targets))
	for j, a := range in.targets {
		targets[j] = a.String()
	}
	mk := func(k int, t []string) server.SolveRequest {
		return server.SolveRequest{Targets: t, K: k, Algorithm: f.algo, RR: f.rr, Seed: seed}
	}
	var body any
	switch kind {
	case "batch":
		r.kind, r.path, r.targets, r.ks = "batch", "/api/solve/batch", targets, batchKs
		b := server.BatchSolveRequest{Program: in.progText, Facts: in.factsText}
		for _, k := range batchKs {
			b.Solves = append(b.Solves, mk(k, targets))
		}
		body = b
	case "pattern":
		r.kind, r.path, r.targets, r.ks = "pattern", "/api/solve", []string{in.pattern}, []int{serveK}
		s := mk(serveK, r.targets)
		s.Program, s.Facts = in.progText, in.factsText
		body = s
	default:
		r.kind, r.path, r.targets, r.ks = "single", "/api/solve", targets, []int{serveK}
		s := mk(serveK, targets)
		s.Program, s.Facts = in.progText, in.factsText
		body = s
	}
	r.body, _ = json.Marshal(body)
	g.issued = append(g.issued, r)
	return r
}

// schedule draws n requests, one due every 1/rate seconds.
func (g *requestGen) schedule(n int, rate float64) []*serveReq {
	out := make([]*serveReq, n)
	for i := range out {
		out[i] = g.next(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	return out
}

// result is one request's outcome, timed from its due time.
type result struct {
	status int
	body   []byte
	err    error
	lag    time.Duration // due -> sent
	lat    time.Duration // due -> response read
	svc    time.Duration // sent -> response read
}

// openLoop sends each request at its due time after start, whether or not
// earlier ones have completed, and waits for all of them. tr, when
// non-nil, records a span per request and one for its wait to be sent.
func openLoop(client *http.Client, base string, reqs []*serveReq, start time.Time, tr *tracer, opBase int) []result {
	out := make([]result, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		due := start.Add(r.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent := time.Now()
			res := result{lag: sent.Sub(due)}
			req, err := http.NewRequest(http.MethodPost, base+r.path, bytes.NewReader(r.body))
			if err == nil {
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set("X-Tenant", r.tenant)
				var resp *http.Response
				resp, err = client.Do(req)
				if err == nil {
					res.status = resp.StatusCode
					res.body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
			}
			done := time.Now()
			res.err, res.lat, res.svc = err, done.Sub(due), done.Sub(sent)
			out[i] = res
			if tr != nil {
				id := tr.record(opBase+i, 0, "serve.request", due, done)
				tr.record(opBase+i, id, "serve.wait", due, sent)
			}
		}()
	}
	wg.Wait()
	return out
}

// serveRun is a set-up serve-mix run: the pool, the schedule and a running
// server.
type serveRun struct {
	cfg    serveConfig
	insts  []*instance
	fams   []serveFamily
	gen    *requestGen
	reqs   []*serveReq
	srv    *http.Server
	served chan error
	base   string
	tr     *http.Transport
	client *http.Client
}

// poolSeed generates serve-mix's instance pool. The pool and the shape of
// the request sequence over it are fixed; the workload seed draws the
// solve seeds and tenants. Pools and instance orders drawn per seed made
// the p50 of this mixed-cost traffic depend more on the draw than on the
// server.
const poolSeed = 0xDA7A

// setupServe generates the pool and, from seed, the schedule; starts the
// server on a loopback port and warms it up with one request on an
// instance outside the pool, so the cache starts empty for the pool.
func setupServe(cfg serveConfig, seed uint64, seconds int) (*serveRun, error) {
	run := &serveRun{cfg: cfg}
	for fi, f := range serveFamilies {
		for j := 0; j < f.count; j++ {
			rng := rand.New(rand.NewPCG(poolSeed, uint64(1000*fi+j)))
			in, err := genInstance(f.spec, rng, serveTargets, nil, 0)
			if err != nil {
				return nil, err
			}
			run.insts = append(run.insts, in)
			run.fams = append(run.fams, f)
		}
	}
	run.gen = newRequestGen(rand.New(rand.NewPCG(seed, 7)), run.insts, run.fams)
	n := int(cfg.rate * float64(seconds))
	if n < minOps {
		return nil, fmt.Errorf("serve-mix: %.1f req/s for %d s gives %d requests, fewer than the %d that p90 needs", cfg.rate, seconds, n, minOps)
	}
	run.reqs = run.gen.schedule(n, cfg.rate)

	nproc := runtime.NumCPU()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	run.srv = &http.Server{Handler: server.NewWith(server.Config{Obs: obs.NewRegistry(), MaxConcurrentSolves: nproc})}
	run.served = make(chan error, 1)
	go func() { run.served <- run.srv.Serve(ln) }()
	run.base = "http://" + ln.Addr().String()
	run.tr = &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	run.client = &http.Client{Transport: run.tr, Timeout: 60 * time.Second}

	rng := rand.New(rand.NewPCG(seed, 99))
	warm, err := genInstance(spec{"TC", 10}, rng, serveTargets, nil, 0)
	if err != nil {
		run.stop()
		return nil, err
	}
	wg := newRequestGen(rng, []*instance{warm}, []serveFamily{{spec{"TC", 10}, "magics", 300, 1}})
	res := openLoop(run.client, run.base, []*serveReq{wg.next(0)}, time.Now(), nil, 0)
	if res[0].err != nil || res[0].status != http.StatusOK {
		run.stop()
		return nil, fmt.Errorf("warm-up request: status %d, %v", res[0].status, res[0].err)
	}
	return run, nil
}

// stop shuts the server down and waits for it to exit.
func (r *serveRun) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r.srv.Shutdown(ctx)
	if err := <-r.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("server: %v\n", err)
	}
	r.tr.CloseIdleConnections()
}

// scrape reads the server's /metrics.
func (r *serveRun) scrape() (map[string]json.RawMessage, error) {
	resp, err := r.client.Get(r.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return m, nil
}

// answer is a response reduced to what must repeat exactly: the timing,
// cache and run-identity fields are dropped.
func answer(r *server.SolveResponse) server.SolveResponse {
	a := *r
	a.TotalMillis, a.RunID, a.Profile = 0, "", nil
	a.CacheGraphHits, a.CacheGraphMisses, a.CacheRRHits, a.CacheRRMisses = 0, 0, 0, 0
	a.PlansBuilt, a.PlanCacheHits = 0, 0
	return a
}

// answered is a verified response.
type answered struct {
	solves []*server.SolveResponse
	total  float64 // the server's own totalMillis
	hit    bool    // every solve was answered from the RR cache
	cold   bool    // no solve hit either cache
}

// verify checks one response and returns its decoded solves.
func (r *serveRun) verify(q *serveReq, res result) (*answered, error) {
	if res.err != nil {
		return nil, res.err
	}
	if res.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", res.status, strings.TrimSpace(string(res.body)))
	}
	out := &answered{}
	if q.path == "/api/solve/batch" {
		var b server.BatchSolveResponse
		if err := json.Unmarshal(res.body, &b); err != nil {
			return nil, err
		}
		if len(b.Results) != len(q.ks) {
			return nil, fmt.Errorf("batch answered %d of %d solves", len(b.Results), len(q.ks))
		}
		for i, it := range b.Results {
			if it.Response == nil {
				return nil, fmt.Errorf("batch solve %d: %s", i, it.Error)
			}
			out.solves = append(out.solves, it.Response)
		}
		out.total = b.TotalMillis
	} else {
		var s server.SolveResponse
		if err := json.Unmarshal(res.body, &s); err != nil {
			return nil, err
		}
		out.solves = []*server.SolveResponse{&s}
		out.total = s.TotalMillis
	}
	out.hit, out.cold = true, true
	for i, s := range out.solves {
		if len(s.Targets) == 0 {
			return nil, fmt.Errorf("solve %d has no targets", i)
		}
		if err := checkSeeds(s.Seeds, s.SeedGains, q.ks[i], r.insts[q.inst].t1); err != nil {
			return nil, fmt.Errorf("solve %d: %w", i, err)
		}
		out.hit = out.hit && s.CacheRRHits > 0
		out.cold = out.cold && s.CacheRRHits == 0 && s.CacheGraphHits == 0
	}
	return out, nil
}

// checkRepeats compares every response with the first response to the same
// request body: repeats and cache hits must answer exactly as the cold
// solve did.
func checkRepeats(reqs []*serveReq, answers []*answered) []error {
	first := map[string][]byte{}
	var errs []error
	for i, q := range reqs {
		a := answers[i]
		if a == nil {
			continue
		}
		var canon []server.SolveResponse
		for _, s := range a.solves {
			canon = append(canon, answer(s))
		}
		b, _ := json.Marshal(canon)
		key := q.path + "\x00" + string(q.body)
		if prev, ok := first[key]; !ok {
			first[key] = b
		} else if !bytes.Equal(prev, b) {
			errs = append(errs, fmt.Errorf("request %d (%s repeat, instance %d) answered differently from its first occurrence", i, q.kind, q.inst))
		}
	}
	return errs
}

// runServe runs serve-mix: the open-loop window at the BENCHMARK.json rate,
// verification, scoring and, when traced, the per-layer figures and the
// max_rps_under_slo ladder.
func runServe(cfg serveConfig, o runOptions, rep *report, traced bool) error {
	var run *serveRun
	setupS, err := setupMedian(func() error {
		if run != nil {
			run.stop()
		}
		var err error
		run, err = setupServe(cfg, o.seed, o.seconds)
		return err
	})
	if err != nil {
		return err
	}
	defer run.stop()
	rep.setupDone(setupS, fmt.Sprintf("%d instances over %d families, %d requests at %.1f req/s, p90 limit %.0f ms, MaxConcurrentSolves=%d",
		len(run.insts), len(serveFamilies), len(run.reqs), cfg.rate, cfg.sloMs, runtime.NumCPU()))

	var tr *tracer
	var before map[string]json.RawMessage
	if traced {
		tr = &tracer{}
		if before, err = run.scrape(); err != nil {
			return err
		}
	}
	w := startWindow()
	results := openLoop(run.client, run.base, run.reqs, time.Now(), tr, 0)
	tot := w.stop()

	answers := make([]*answered, len(results))
	var lat, lags []float64
	misses := 0
	for i, res := range results {
		rep.attempted++
		lat = append(lat, ms(res.lat))
		lags = append(lags, ms(res.lag))
		a, err := run.verify(run.reqs[i], res)
		if err != nil {
			misses++
			rep.fail(fmt.Errorf("request %d (%s): %w", i, run.reqs[i].kind, err))
			continue
		}
		answers[i] = a
		if ms(res.lat) > cfg.sloMs {
			misses++
		}
	}
	for _, err := range checkRepeats(run.reqs, answers) {
		rep.fail(err)
	}
	rep.window(tot, lat)
	// The open loop fixes the offered rate, so requests per wall-clock
	// second would echo --serve-rate until the server saturates. serve-mix
	// reports the rate the server sustained while it had work instead:
	// verified requests per second of busy time.
	busy := busyTime(run.reqs, results)
	ok := len(results) - rep.failed
	rep.set("solves_per_s", "1/s", float64(ok)/busy.Seconds(), ok)
	rep.note("server busy %.2f s of the %.2f s window", busy.Seconds(), tot.wall.Seconds())
	rep.note("traffic: %s", mixSplit(run.reqs, answers))
	rep.human("slo_miss_ratio", "ratio", float64(misses)/float64(len(results)), len(results))
	lagP90, _ := percentile(lags, 0.9)
	rep.note("generator lag p90 %.3f ms (limit %v)", lagP90, genLagLimit)
	if lagP90 > ms(genLagLimit) {
		rep.invalid(fmt.Sprintf("the load generator fell behind its schedule (lag p90 %.1f ms > %v)", lagP90, genLagLimit))
	}

	score, n, err := run.score(answers)
	if err != nil {
		return err
	}
	if n > 0 {
		rep.set("seed_contribution", "targets", score, n)
	}

	after, err := run.scrape()
	if err != nil {
		return err
	}
	if ev := counter(after, "cache.evictions"); ev > 0 {
		rep.note("solvecache evicted %d entries: the working set no longer fits the cache", ev)
	}
	if !traced {
		return nil
	}
	rep.layer("bench.gen_lag_p90_ms", lagP90)
	run.layers(rep, results, answers, before, after, tr, tot)
	run.ladder(rep)
	spans := tr.snapshot()
	if err := writeSpans(o.spanPath(), spans); err != nil {
		return err
	}
	rep.note("spans written to %s (%d spans)", o.spanPath(), len(spans))
	return nil
}

// busyTime is how long at least one request was in flight: the union of
// the requests' send-to-response intervals.
func busyTime(reqs []*serveReq, results []result) time.Duration {
	var all span
	kids := make([]span, len(results))
	for i, res := range results {
		kids[i] = span{Start: all.Start.Add(reqs[i].due + res.lag), End: all.Start.Add(reqs[i].due + res.lat)}
		if kids[i].End.After(all.End) {
			all.End = kids[i].End
		}
	}
	return covered(all, kids)
}

// mixSplit describes the window's traffic as the responses report it: how
// single solves were answered (cold, from the RR cache, or from the graph
// cache alone), batches, patterns and failures.
func mixSplit(reqs []*serveReq, answers []*answered) string {
	var cold, hit, graphOnly, batch, pattern, failed, solves, rrHits int
	for i, q := range reqs {
		a := answers[i]
		if a == nil {
			failed++
			continue
		}
		for _, s := range a.solves {
			solves++
			if s.CacheRRHits > 0 {
				rrHits++
			}
		}
		switch {
		case q.kind == "batch":
			batch++
		case q.kind == "pattern":
			pattern++
		case a.hit:
			hit++
		case a.cold:
			cold++
		default:
			graphOnly++
		}
	}
	return fmt.Sprintf("%d requests: single %d cold, %d rr-cache hit, %d graph-cache hit; %d batch; %d pattern; %d failed; %d of %d solves answered from the rr cache",
		len(reqs), cold, hit, graphOnly, batch, pattern, failed, rrHits, solves)
}

// score is seed_contribution for serve-mix: the mean percolation-oracle
// contribution of the first cold ground-target answer on each instance.
func (r *serveRun) score(answers []*answered) (float64, int, error) {
	seen := map[int]bool{}
	var vals []float64
	for i, q := range r.reqs {
		a := answers[i]
		if q.kind != "single" || q.repeat || a == nil || seen[q.inst] {
			continue
		}
		seen[q.inst] = true
		in := r.insts[q.inst]
		v, err := oracle(in, in.targets, a.solves[0].Seeds, serveScoreSamples)
		if err != nil {
			return 0, 0, err
		}
		vals = append(vals, v)
	}
	return mean(vals), len(vals), nil
}

// layers reports serve-mix's per-layer figures: the server-side ones from
// responses and /metrics deltas, the input-side ones by timing parsing,
// loading, analysis and pattern expansion directly on the window's request
// texts.
func (r *serveRun) layers(rep *report, results []result, answers []*answered, before, after map[string]json.RawMessage, tr *tracer, tot windowTotals) {
	n := float64(len(results))
	d := func(name string) float64 { return float64(counter(after, name) - counter(before, name)) }
	dh := func(name string) float64 { return float64(histSum(after, name) - histSum(before, name)) }

	var overhead, wait, cold, warm, planHits []float64
	shed := 0
	for i, res := range results {
		wait = append(wait, ms(res.lag))
		if res.status == http.StatusTooManyRequests {
			shed++
		}
		a := answers[i]
		if a == nil {
			continue
		}
		overhead = append(overhead, ms(res.svc)-a.total)
		for _, s := range a.solves {
			planHits = append(planHits, float64(s.PlanCacheHits))
		}
		if r.reqs[i].path != "/api/solve" {
			continue
		}
		switch {
		case a.hit:
			warm = append(warm, ms(res.lat))
		case a.cold:
			cold = append(cold, ms(res.lat))
		}
	}
	rep.layer("server.overhead_ms", mean(overhead))
	rep.layer("server.wait_ms", mean(wait))
	rep.layer("server.cold_ms", mean(cold))
	rep.layer("server.warm_ms", mean(warm))
	rep.layer("server.shed", float64(shed))

	builds := d("wdgraph.builds")
	rep.layer("planner.plans_built", d("plan.built")/n)
	rep.layer("planner.cache_hits", d("plan.cache_hits")/n)
	rep.layer("engine.compiles", d("engine.runs")/n)
	rep.layer("engine.fixpoint_ms", dh("engine.eval_ns")/1e6/n)
	rep.layer("engine.rounds", d("engine.rounds")/n)
	rep.layer("engine.instantiations", d("engine.instantiations")/n)
	rep.layer("engine.suppressed_ratio", ratio(d("engine.suppressed"), d("engine.suppressed")+d("engine.instantiations")))
	rep.layer("wdgraph.builds", builds/n)
	rep.layer("wdgraph.graph_size", ratio(d("wdgraph.nodes")+d("wdgraph.edges"), builds))
	rep.layer("im.rr_sets", d("rr.sets")/n)
	rep.layer("im.rr_members", dh("rr.members")/n)
	rep.layer("im.arena_mb", float64(counter(after, "rr.bytes_arena"))/1e6)
	rep.layer("cm.graph_builds", builds/n)
	rep.layer("cm.plan_cache_hits", mean(planHits))
	gh, gm := d("cache.graph_hits"), d("cache.graph_misses")
	rh, rm := d("cache.rr_hits"), d("cache.rr_misses")
	rep.layer("solvecache.graph_hit_ratio", ratio(gh, gh+gm))
	rep.layer("solvecache.rr_hit_ratio", ratio(rh, rh+rm))
	rep.layer("solvecache.resident_mb", float64(counter(after, "cache.bytes"))/1e6)
	rep.layer("solvecache.evictions", d("cache.evictions"))
	rep.layer("go.gc_cycles", float64(tot.gcCycles)/n)
	rep.layer("go.gc_cpu_ms", ms(tot.gcCPU)/n)
	rep.note("engine.fixpoint_ms on serve-mix is the server's engine.eval_ns, listener included")

	// Direct timings on the same request texts, after the window.
	var parse, load, analyze, expand time.Duration
	var bytesIn, patterns, clones float64
	for _, q := range r.reqs {
		in := r.insts[q.inst]
		bytesIn += float64(len(in.progText) + len(in.factsText))
		t0 := time.Now()
		prog, err := parser.ParseProgramLoose(in.progText)
		facts, err2 := parser.ParseFacts(in.factsText)
		t1 := time.Now()
		parse += t1.Sub(t0)
		if err != nil || err2 != nil {
			continue
		}
		database, err := loadFacts(facts)
		t2 := time.Now()
		load += t2.Sub(t1)
		if err != nil {
			continue
		}
		var targets []ast.Atom
		for _, line := range q.targets {
			if a, err := parser.ParseAtom(line); err == nil {
				targets = append(targets, a)
			}
		}
		for range q.ks {
			t := time.Now()
			analysis.Analyze(prog, analysisOptions(prog, database, targets))
			analyze += time.Since(t)
		}
		if q.kind == "pattern" {
			t := time.Now()
			scratch := scratchOf(prog, database)
			if eng, err := engine.New(prog, scratch); err == nil {
				if _, err := eng.Run(engine.Options{}); err == nil {
					scratch.Match(targets[0])
				}
			}
			expand += time.Since(t)
			patterns++
			clones++
		}
	}
	clones += builds
	rep.layer("parser.parse_ms", ms(parse)/n)
	rep.layer("parser.bytes", bytesIn/n)
	rep.layer("db.load_ms", ms(load)/n)
	rep.layer("db.scratch_clones", clones/n)
	rep.layer("analysis.analyze_ms", ms(analyze)/n)
	if patterns > 0 {
		rep.layer("server.expand_ms", ms(expand)/patterns)
	}
	// A request's span is recorded after its response is read, so tracing
	// adds nothing to the latency it measures. What it costs is the tracer's
	// own time, which competes for the CPU with the in-process server.
	rep.layer("bench.trace_overhead", tr.cost.Seconds()/tot.wall.Seconds())
	rep.idleLayers()
}

// ladder measures max_rps_under_slo: rungs of ladderStep at each rate in
// turn, stopping at the first that misses the p90 limit, fails a request or
// ends with a growing backlog; the result is the completed-request rate of
// the highest rung that held.
func (r *serveRun) ladder(rep *report) {
	best := 0.0
	for _, rate := range r.cfg.ladder {
		n := int(rate * ladderStep.Seconds())
		reqs := r.gen.schedule(n, rate)
		start := time.Now()
		results := openLoop(r.client, r.base, reqs, start, nil, 0)
		var lat []float64
		failed, late := 0, 0
		var last time.Time
		for i, res := range results {
			lat = append(lat, ms(res.lat))
			if _, err := r.verify(reqs[i], res); err != nil {
				failed++
			}
			if end := start.Add(reqs[i].due + res.lat); end.After(last) {
				last = end
			}
			// A request still running a full limit after the rung's last
			// due time is backlog the rung did not drain.
			if reqs[i].due+res.lat > ladderStep+time.Duration(r.cfg.sloMs*float64(time.Millisecond)) {
				late++
			}
		}
		p90, _ := percentile(lat, 0.9)
		achieved := float64(len(results)-failed) / last.Sub(start).Seconds()
		ok := p90 <= r.cfg.sloMs && failed == 0 && late == 0
		rep.note("ladder %.1f req/s: p90 %.1f ms, %d failed, %d past drain, completed %.2f req/s -> %s",
			rate, p90, failed, late, achieved, map[bool]string{true: "held", false: "missed"}[ok])
		if !ok {
			break
		}
		best = achieved
	}
	rep.layer("server.max_rps_under_slo", best)
}

// counter reads an integer metric from a /metrics scrape (0 if absent).
func counter(m map[string]json.RawMessage, name string) int64 {
	var v int64
	if raw, ok := m[name]; ok {
		json.Unmarshal(raw, &v)
	}
	return v
}

// histSum reads a histogram's sum from a /metrics scrape (0 if absent).
func histSum(m map[string]json.RawMessage, name string) int64 {
	var h struct {
		Sum int64 `json:"sum"`
	}
	if raw, ok := m[name]; ok {
		json.Unmarshal(raw, &h)
	}
	return h.Sum
}
