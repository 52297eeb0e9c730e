// Package instr is the one instrument of a CM solve. It bundles the four
// observability sinks a solve may carry — the metrics registry, the phase
// trace, the event journal and the runtime profile — into one value that
// every layer below internal/cm takes instead of the sinks, and it is the
// one recording site of each event those layers report (an engine run and
// its rounds, a WD-graph build, an RR set, an IMM round): it decides what
// each event records in each sink.
//
// A nil *Instr is the disabled instrument: New returns nil when all four
// sinks are nil, and every method on a nil receiver returns after one
// pointer check without allocating. Recording never perturbs the solver:
// it draws no randomness and changes no evaluation order.
package instr

import (
	"time"

	"contribmax/internal/obs"
	"contribmax/internal/obs/journal"
	"contribmax/internal/prof"
)

// Instr is one solve's instrument. Its methods are safe for concurrent use
// as far as the sinks are (all but the trace span, which belongs to the
// solve's goroutine).
type Instr struct {
	reg   *obs.Registry
	trace *obs.Span
	jr    *journal.Journal
	pf    *prof.Profile
	quiet *Instr // see Quiet
}

// New returns the instrument over the given sinks, any of which may be
// nil; nil when all four are.
func New(reg *obs.Registry, trace *obs.Span, jr *journal.Journal, pf *prof.Profile) *Instr {
	if reg == nil && trace == nil && jr == nil && pf == nil {
		return nil
	}
	h := &Instr{reg: reg, trace: trace, jr: jr, pf: pf}
	if reg != nil || pf != nil {
		h.quiet = &Instr{reg: reg, pf: pf}
		h.quiet.quiet = h.quiet
	}
	return h
}

// Quiet returns h without its journal and trace, for work the event
// stream only summarizes: the Magic variants' per-target subgraph builds
// and groundings, thousands per solve, which rr.batch events summarize
// instead of a graph.build and engine.round events each. Nil when h has
// neither a registry nor a profile.
func (h *Instr) Quiet() *Instr {
	if h == nil {
		return nil
	}
	return h.quiet
}

// Registry returns the metrics registry (nil when disabled).
func (h *Instr) Registry() *obs.Registry {
	if h == nil {
		return nil
	}
	return h.reg
}

// Trace returns the span the solve's phase tree hangs under (nil when
// disabled).
func (h *Instr) Trace() *obs.Span {
	if h == nil {
		return nil
	}
	return h.trace
}

// Journal returns the event journal (nil when disabled).
func (h *Instr) Journal() *journal.Journal {
	if h == nil {
		return nil
	}
	return h.jr
}

// Profile returns the runtime profile (nil when disabled); the engine
// opens one prof.EngineRun per evaluation on it.
func (h *Instr) Profile() *prof.Profile {
	if h == nil {
		return nil
	}
	return h.pf
}

// EngineRound records one semi-naive round of an evaluation: its delta
// size into engine.delta_size and an engine.round event.
func (h *Instr) EngineRound(round, delta int) {
	if h == nil {
		return
	}
	h.reg.Histogram(obs.EngineDeltaSize).Observe(int64(delta))
	h.jr.EngineRound(round, delta)
}

// EngineRun records one finished evaluation into the engine.* counters
// and the engine.eval_ns histogram.
func (h *Instr) EngineRun(rounds int, instantiations, suppressed, newFacts int64, elapsed time.Duration) {
	if h == nil || h.reg == nil {
		return
	}
	h.reg.Counter(obs.EngineRuns).Inc()
	h.reg.Counter(obs.EngineRounds).Add(int64(rounds))
	h.reg.Counter(obs.EngineInstantiations).Add(instantiations)
	h.reg.Counter(obs.EngineSuppressed).Add(suppressed)
	h.reg.Counter(obs.EngineNewFacts).Add(newFacts)
	h.reg.Histogram(obs.EngineEvalNs).Observe(int64(elapsed))
}

// EnginePipeline records one pipelined evaluation (Parallelism >= 2 with a
// listener, see engine.Options): the derivation batches the fixpoint
// handed to the listener (round-boundary drains included, which happen
// only when the run's context can be cancelled), how long the listener
// waited for the fixpoint, and how long the fixpoint waited for the
// listener (to return a batch, or to consume a round). The larger wait
// belongs to the faster stage; the other stage bounds the run.
func (h *Instr) EnginePipeline(batches int, listenerWait, fixpointWait time.Duration) {
	if h == nil || h.reg == nil {
		return
	}
	h.reg.Counter(obs.EnginePipeBatches).Add(int64(batches))
	h.reg.Histogram(obs.EngineListenerWait).Observe(int64(listenerWait))
	h.reg.Histogram(obs.EngineFixpointWait).Observe(int64(fixpointWait))
}

// GraphBuilt records one constructed WD (sub)graph that started at start:
// the wdgraph.* counters, the build-time histogram and a graph.build
// event.
func (h *Instr) GraphBuilt(nodes, edges int, start time.Time) {
	if h == nil {
		return
	}
	d := time.Since(start)
	if reg := h.reg; reg != nil {
		reg.Counter(obs.GraphBuilds).Inc()
		reg.Counter(obs.GraphNodes).Add(int64(nodes))
		reg.Counter(obs.GraphEdges).Add(int64(edges))
		reg.Histogram(obs.GraphBuildNs).Observe(int64(d))
	}
	h.jr.GraphBuild(nodes, edges, d)
}

// RRArena records an assembled RR collection: the arena's resident bytes
// and how often worker scratch had to regrow (zero in steady state).
func (h *Instr) RRArena(bytes, scratchGrows int64) {
	if h == nil || h.reg == nil {
		return
	}
	h.reg.Gauge(obs.RRBytesArena).Set(bytes)
	h.reg.Counter(obs.RRScratchGrows).Add(scratchGrows)
}

// IMMRound records one phase-1 round of adaptive sampling as an imm.round
// event.
func (h *Instr) IMMRound(info journal.IMMInfo) {
	if h == nil {
		return
	}
	h.jr.IMMRound(info)
}

// IMMRun records one adaptive phase that ran rounds phase-1 rounds into
// imm.rounds and, when it completed, its RR counts into imm.runs,
// imm.rr_phase1 and imm.rr_total.
func (h *Instr) IMMRun(rounds, phase1, total int, completed bool) {
	if h == nil || h.reg == nil {
		return
	}
	h.reg.Counter(obs.IMMRounds).Add(int64(rounds))
	if completed {
		h.reg.Counter(obs.IMMRuns).Inc()
		h.reg.Counter(obs.IMMPhase1).Add(int64(phase1))
		h.reg.Counter(obs.IMMTotalRR).Add(int64(total))
	}
}

// RR is one RR-generation worker's recorder. It lives for the whole solve,
// so the worker's rr.batch running totals cover every batch it drew. One
// worker goroutine records at a time. A nil *RR records nothing.
type RR struct {
	sets    *obs.Counter
	members *obs.Histogram
	batch   *journal.BatchRecorder
	pf      *prof.Profile
}

// NewRR returns the recorder of RR-generation worker worker; nil when h
// has no registry, journal or profile.
func (h *Instr) NewRR(worker int) *RR {
	if h == nil || (h.reg == nil && h.jr == nil && h.pf == nil) {
		return nil
	}
	r := &RR{sets: h.reg.Counter(obs.RRSets), members: h.reg.Histogram(obs.RRMembers), pf: h.pf}
	if h.jr != nil {
		r.batch = journal.NewBatchRecorder(h.jr, worker)
	}
	return r
}

// Start returns the start time of one RR set: now when the profile
// attributes walk time, the zero time otherwise.
func (r *RR) Start() time.Time {
	if r == nil || r.pf == nil {
		return time.Time{}
	}
	return time.Now()
}

// Set records one generated RR set of members candidates, drawn for target
// ti from t0 (from Start) on: it counts into rr.sets and rr.members, joins
// the worker's open rr.batch aggregate and, unless t0 is the zero time,
// attributes the walk to ti in the profile. DNFCM passes the zero time:
// its possible-world samples are not walks.
func (r *RR) Set(ti, members int, t0 time.Time) {
	if r == nil {
		return
	}
	r.sets.Inc()
	r.members.Observe(int64(members))
	r.batch.Observe(members)
	if r.pf != nil && !t0.IsZero() {
		// Atomic per-target adds: members are a fixed function of the
		// slots; only the times vary with scheduling.
		r.pf.RecordWalk(ti, members, int64(time.Since(t0)))
	}
}

// Flush emits the worker's open rr.batch aggregate, if any.
func (r *RR) Flush() {
	if r == nil {
		return
	}
	r.batch.Flush()
}
