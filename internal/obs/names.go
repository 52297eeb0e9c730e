package obs

import "fmt"

// Canonical metric names used across the pipeline, so dashboards and tests
// reference one vocabulary (documented in docs/OBSERVABILITY.md).
const (
	// Engine fixpoint evaluation.
	EngineRuns           = "engine.runs"           // counter: evaluations started
	EngineRounds         = "engine.rounds"         // counter: semi-naive rounds
	EngineInstantiations = "engine.instantiations" // counter: fired rule instantiations
	EngineSuppressed     = "engine.suppressed"     // counter: gate-vetoed instantiations
	EngineNewFacts       = "engine.new_facts"      // counter: idb tuples first derived
	EngineDeltaSize      = "engine.delta_size"     // histogram: delta tuples per round
	EngineEvalNs         = "engine.eval_ns"        // histogram: ns per evaluation
	EnginePipeBatches    = "engine.pipe_batches"   // counter: derivation batches a pipelined run handed to its listener
	EngineListenerWait   = "engine.listener_wait"  // histogram: ns per pipelined run the listener waited for the fixpoint
	EngineFixpointWait   = "engine.fixpoint_wait"  // histogram: ns per pipelined run the fixpoint waited for the listener

	// Join planner (internal/planner).
	PlanBuilt     = "plan.built"      // counter: plans computed (cache misses)
	PlanCacheHits = "plan.cache_hits" // counter: plans served from the shape-keyed cache
	PlanReordered = "plan.reordered"  // counter: plan positions deviating from written body order

	// WD-graph construction.
	GraphBuilds  = "wdgraph.builds"   // counter: graphs constructed
	GraphNodes   = "wdgraph.nodes"    // counter: nodes summed over builds
	GraphEdges   = "wdgraph.edges"    // counter: edges summed over builds
	GraphBuildNs = "wdgraph.build_ns" // histogram: ns per construction

	// RR-set generation and adaptive sampling.
	RRSets         = "rr.sets"          // counter: RR sets generated
	RRMembers      = "rr.members"       // histogram: candidates per RR set (walk length)
	RRBytesArena   = "rr.bytes_arena"   // gauge: resident bytes of the RR-collection arena
	RRScratchGrows = "rr.scratch_grows" // counter: walker-scratch reallocations (0 in steady state)
	IMMRuns        = "imm.runs"         // counter: adaptive solves
	IMMRounds      = "imm.rounds"       // counter: phase-1 halving iterations
	IMMPhase1      = "imm.rr_phase1"    // counter: RR sets spent bounding OPT
	IMMTotalRR     = "imm.rr_total"     // counter: final collection sizes summed

	// CM solvers.
	CMSolves  = "cm.solves"   // counter: completed solves
	CMErrors  = "cm.errors"   // counter: solves returning an error
	CMSolveNs = "cm.solve_ns" // histogram: ns per solve

	// Exact lifted tier and DNF possible-world sampling (internal/cm
	// exact.go / greedydnf.go).
	ExactSolves    = "exact.solves"    // counter: solves answered by the exact lifted tier
	ExactFallbacks = "exact.fallbacks" // counter: exact-tier solves that fell back to RIS sampling
	LineageClauses = "lineage.clauses" // histogram: normalized clauses per target lineage
	DNFSamples     = "dnf.samples"     // counter: DNF possible-world samples drawn

	// Solve cache (internal/solvecache).
	CacheGraphHits    = "cache.graph_hits"          // counter: WD-graph lookups served from cache
	CacheGraphMisses  = "cache.graph_misses"        // counter: WD-graph lookups that built
	CacheRRHits       = "cache.rr_hits"             // counter: RR-collection lookups served from cache
	CacheRRMisses     = "cache.rr_misses"           // counter: RR-collection lookups that generated
	CacheEvictions    = "cache.evictions"           // counter: entries evicted by the byte bound
	CacheRejected     = "cache.rejected"            // counter: entries refused admission (oversized)
	CacheSingleFlight = "cache.singleflight_shared" // counter: lookups that waited on another goroutine's build
	CacheBytes        = "cache.bytes"               // gauge: resident bytes over both stores
	CacheEntries      = "cache.entries"             // gauge: resident entries over both stores

	// HTTP server.
	ServerRequests  = "server.requests"   // counter: requests handled
	ServerErrors    = "server.errors"     // counter: responses with status >= 400
	ServerInflight  = "server.inflight"   // gauge: requests currently in flight
	ServerLatencyNs = "server.latency_ns" // histogram: ns per request

	// Solve pool, tenant quotas, and async run store (internal/server).
	ServerQueueDepth   = "server.queue_depth"   // gauge: solves waiting for a pool slot
	ServerPoolBusy     = "server.pool_busy"     // gauge: pool slots currently executing solves
	ServerShed         = "server.shed"          // counter: solves refused with 429 (pool saturated)
	ServerTenantDenied = "server.tenant_denied" // counter: solves refused with 429 (tenant over quota)
	ServerRunsEvicted  = "runs.evicted"         // counter: finished async runs evicted by the run-store LRU

	// Journal data-loss signals (internal/obs/journal, satellite of the
	// runtime profiler): both losses were previously silent.
	JournalDropped     = "journal.dropped"     // counter: slow subscribers disconnected mid-stream
	JournalOverwritten = "journal.overwritten" // counter: ring-buffer events evicted before replay

	// Go runtime gauges (Registry.UpdateGoRuntime).
	GoGoroutines = "go.goroutines" // gauge: live goroutines
	GoHeapBytes  = "go.heap_bytes" // gauge: heap bytes in use (MemStats.HeapAlloc)
	GoGCPauses   = "go.gc_pauses"  // gauge: cumulative GC stop-the-world pause ns (MemStats.PauseTotalNs)
)

// ProfileRuleSelfNs and ProfileRuleDerived name the top-K hot-rule gauges a
// profiled solve publishes (rank is 1-based). The names are rank-keyed, not
// rule-keyed, so the metric cardinality stays bounded; the rule identity
// lives in the RuntimeProfile artifact and the profile.summary event.
func ProfileRuleSelfNs(rank int) string { return fmt.Sprintf("profile.rule%d.self_ns", rank) }

// ProfileRuleDerived names the derived-tuples gauge of the rank-th hottest
// rule of the last profiled solve.
func ProfileRuleDerived(rank int) string { return fmt.Sprintf("profile.rule%d.derived", rank) }
