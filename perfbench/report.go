package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names a metric and its unit. BENCHMARK.json lists the same
// names; TestCatalogueMatchesBenchmarkJSON keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run reports on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"solves_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"cpu_ms_per_solve", "ms", "lower"},
	{"alloc_mb_per_solve", "MB", "lower"},
	{"peak_heap_mb", "MB", "lower"},
	{"seed_contribution", "targets", "higher"},
}

// perLayer are the metrics a traced run reports on every workload; a layer
// a workload does not exercise, or that the benchmark cannot observe from
// outside on that workload, reads 0.
var perLayer = []metricDef{
	{"parser.parse_ms", "ms", "lower"},
	{"parser.bytes", "bytes", "lower"},
	{"db.load_ms", "ms", "lower"},
	{"db.scratch_clones", "count", "lower"},
	{"analysis.analyze_ms", "ms", "lower"},
	{"magic.transforms", "count", "lower"},
	{"magic.transform_ms", "ms", "lower"},
	{"planner.plans_built", "count", "lower"},
	{"planner.cache_hits", "count", "higher"},
	{"engine.compiles", "count", "lower"},
	{"engine.compile_ms", "ms", "lower"},
	{"engine.fixpoint_ms", "ms", "lower"},
	{"engine.rounds", "count", "lower"},
	{"engine.instantiations", "count", "lower"},
	{"engine.suppressed_ratio", "ratio", "lower"},
	{"engine.p2_speedup", "ratio", "higher"},
	{"wdgraph.builds", "count", "lower"},
	{"wdgraph.graph_size", "count", "lower"},
	{"wdgraph.listener_ms", "ms", "lower"},
	{"wdgraph.finalize_ms", "ms", "lower"},
	{"wdgraph.walk_ms", "ms", "lower"},
	{"wdgraph.walk_nodes", "count", "lower"},
	{"wdgraph.graph_mb", "MB", "lower"},
	{"im.rr_sets", "count", "lower"},
	{"im.rr_members", "count", "lower"},
	{"im.arena_mb", "MB", "lower"},
	{"im.select_ms", "ms", "lower"},
	{"cm.prepare_ms", "ms", "lower"},
	{"cm.build_ms", "ms", "lower"},
	{"cm.rrgen_ms", "ms", "lower"},
	{"cm.select_ms", "ms", "lower"},
	{"cm.graph_builds", "count", "lower"},
	{"cm.plan_cache_hits", "count", "higher"},
	{"solvecache.graph_hit_ratio", "ratio", "higher"},
	{"solvecache.rr_hit_ratio", "ratio", "higher"},
	{"solvecache.resident_mb", "MB", "lower"},
	{"solvecache.evictions", "count", "lower"},
	{"server.overhead_ms", "ms", "lower"},
	{"server.expand_ms", "ms", "lower"},
	{"server.wait_ms", "ms", "lower"},
	{"server.cold_ms", "ms", "lower"},
	{"server.warm_ms", "ms", "lower"},
	{"server.shed", "count", "lower"},
	{"server.max_rps_under_slo", "1/s", "higher"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_cpu_ms", "ms", "lower"},
	{"bench.gen_lag_p90_ms", "ms", "lower"},
	{"bench.trace_overhead", "ratio", "lower"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// value is a metric as printed in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line the benchmark prints.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report collects a run's metrics, failures and notes.
type report struct {
	workload  string
	traced    bool
	fp        fingerprint
	attempted int
	failed    int
	problems  []string
	invalids  []string
	metrics   map[string]value
	samples   map[string]int
	// extra are metrics printed for people but kept out of the result
	// line: they read zero on a healthy run.
	extra []string
	notes []string
}

func newReport(workload string, traced bool, fp fingerprint) *report {
	return &report{workload: workload, traced: traced, fp: fp, metrics: map[string]value{}, samples: map[string]int{}}
}

// fail records a failed operation.
func (r *report) fail(err error) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, err.Error())
	}
}

// invalid marks the run's measurement invalid (not merely slow).
func (r *report) invalid(reason string) { r.invalids = append(r.invalids, reason) }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// set records an end-to-end metric with its sample count.
func (r *report) set(name, unit string, v float64, n int) {
	r.metrics[name] = value{Value: v, Unit: unit}
	r.samples[name] = n
}

// human records a metric printed for people only.
func (r *report) human(name, unit string, v float64, n int) {
	r.extra = append(r.extra, fmt.Sprintf("%s = %.6g %s (n=%d)", name, v, unit, n))
}

// layer records a per-layer metric.
func (r *report) layer(name string, v float64) {
	r.metrics[name] = value{Value: v, Unit: unitOf(perLayer, name)}
}

// idleLayers records 0 for every per-layer metric not yet set.
func (r *report) idleLayers() {
	for _, d := range perLayer {
		if _, ok := r.metrics[d.name]; !ok {
			r.metrics[d.name] = value{Value: 0, Unit: d.unit}
		}
	}
}

// setupDone records setup_s and describes the workload.
func (r *report) setupDone(s float64, desc string) {
	r.set("setup_s", "s", s, setupReps)
	r.note("workload: %s", desc)
}

// window records the end-to-end metrics of a timed window from its totals
// and the per-operation latencies; each workload sets solves_per_s itself.
func (r *report) window(t windowTotals, lat []float64) {
	ops := len(lat)
	p50, tail50 := summarize("latency_p50_ms", lat, 0.5)
	p90, tail90 := summarize("latency_p90_ms", lat, 0.9)
	r.set("latency_p50_ms", "ms", p50.Value, ops)
	r.set("latency_p90_ms", "ms", p90.Value, ops)
	if !tail50 || !tail90 {
		r.invalid(fmt.Sprintf("%d operations leave fewer than %d samples beyond p90", ops, minTail))
	}
	r.notes = append(r.notes, p50.String(), p90.String())
	r.set("cpu_ms_per_solve", "ms", ms(t.cpu)/float64(ops), ops)
	r.set("alloc_mb_per_solve", "MB", float64(t.allocBytes)/1e6/float64(ops), ops)
	r.set("peak_heap_mb", "MB", float64(t.peakHeap)/1e6, ops)
	r.human("error_ratio", "ratio", float64(r.failed)/float64(ops), ops)
	steal := "unknown"
	if t.steal >= 0 {
		steal = fmt.Sprintf("%.2f%%", 100*t.steal)
	}
	r.note("window: %.2f s wall, %d ops, cpu steal %s, %d GC cycles", t.wall.Seconds(), ops, steal, t.gcCycles)
}

// reconciled records the replay's reconciliation with the real solves.
func (r *report) reconciled(ops, bad int, diffs []string) {
	if bad == 0 {
		r.note("reconciliation: replay matches cm.Stats on all %d traced solves (builds, nodes, edges, rr sets, plans, seeds)", ops)
		return
	}
	r.note("reconciliation: UNRECONCILED on %d of %d traced solves; the per-layer split does not account for the solve. First: %v", bad, ops, diffs)
}

// line builds the result line: every end-to-end metric untraced, every
// per-layer metric traced.
func (r *report) line() resultLine {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	out := resultLine{
		Correct:   r.failed == 0 && len(r.invalids) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]value{},
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			out.Correct = false
			r.invalid(fmt.Sprintf("metric %s was not measured", d.name))
			v = value{Value: 0, Unit: d.unit}
		}
		out.Metrics[d.name] = v
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Correct = false
	}
	return out
}

// print writes the human-readable report and, last, the result line. It
// returns whether the run verified.
func (r *report) print(w io.Writer) bool {
	line := r.line()
	fmt.Fprintf(w, "perfbench %s (trace=%v)\n", r.workload, r.traced)
	fmt.Fprintf(w, "host: %s\n", r.fp)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	names := make([]string, 0, len(line.Metrics))
	for n := range line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := line.Metrics[n]
		if s, ok := r.samples[n]; ok {
			fmt.Fprintf(w, "%s = %.6g %s (n=%d)\n", n, v.Value, v.Unit, s)
		} else {
			fmt.Fprintf(w, "%s = %.6g %s\n", n, v.Value, v.Unit)
		}
	}
	for _, h := range r.extra {
		fmt.Fprintln(w, h)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAILED: %s\n", p)
	}
	for _, p := range r.invalids {
		fmt.Fprintf(w, "INVALID: %s\n", p)
	}
	b, _ := json.Marshal(line)
	fmt.Fprintln(w, string(b))
	return line.Correct
}
