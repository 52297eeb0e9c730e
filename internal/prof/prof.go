// Package prof is the solve-scoped runtime profiler of the CM pipeline:
// an EXPLAIN ANALYZE for probabilistic Datalog solves. A *Profile handed
// to cm.Options.Profile, and from there to every layer as part of the
// solve's instrument (internal/obs/instr), collects per-rule accounting
// from every semi-naive fixpoint the solve evaluates (instantiations
// attempted, tuples derived, dedup rate, wall time per rule per round,
// per-plan-step join fan-out and hoisted-check savings), per-stratum
// round/delta curves, and RR-phase attribution (walks, members, and wall
// time per target), then renders the aggregate as a RuntimeProfile JSON
// artifact or a text tree ranked by self-time.
//
// Contract (the same one obs and journal follow): a nil *Profile is a
// no-op — every method returns immediately after one pointer check and
// allocates nothing — so instrumented code needs no conditional plumbing
// and disabled profiling is free. Profiling never perturbs the solver:
// the collector draws no randomness and changes no evaluation order, so a
// profiled solve is byte-identical to an unprofiled one.
//
// Determinism: all counts (attempted, derived, new facts, suppressed,
// vetoes, step matches, walks, members, per-stratum deltas) are collected
// on deterministic paths — the engine's emit path, the same sequential
// fixpoint at every level, and per-slot sums of the RR workers — and
// merged by commutative addition, so they are identical at every
// Parallelism level. Wall times are inherently scheduling-dependent
// and are accumulated in separate fields that never influence the counts.
package prof

import (
	"sync"
	"sync/atomic"
)

// Caps bound the collector so a pathological solve (thousands of adorned
// per-target rule families, ten-thousand-target instances) cannot make the
// artifact unbounded. Totals always cover everything; only the per-item
// breakdowns are truncated, and the report says how many items were cut.
const (
	// maxRoundsTracked caps the per-rule and per-stratum round breakdown;
	// later rounds aggregate into the last slot.
	maxRoundsTracked = 64
	// maxRulesReported caps RuntimeProfile.Rules (ranked by self-time).
	maxRulesReported = 40
	// maxTargetsReported caps RRProfile.Targets (ranked by walk time).
	maxTargetsReported = 24
	// maxStrataTracked caps the per-stratum curves.
	maxStrataTracked = 16
)

// Profile is the solve-scoped collector. One Profile spans one solve: the
// full-graph fixpoint of NaiveCM or the many per-target and per-RR
// subgraph fixpoints of the Magic variants all merge into it. All methods are safe
// for concurrent use (the parallel RR workers report into it) and no-ops
// on a nil receiver.
type Profile struct {
	mu        sync.Mutex
	algorithm string
	runs      int64 // engine runs merged
	rules     map[string]*ruleAcc
	strata    []stratumAcc
	plan      *PlanProfile
	phases    []PhaseProfile
	hot       []HotNode
	arena     int64

	// RR-phase attribution, keyed by target index. The arrays are sized
	// once by EnsureTargets and then written with atomic adds from the
	// parallel walk workers (sums are commutative, so totals stay
	// deterministic regardless of scheduling).
	targetNames []string
	walkCount   []int64
	walkMembers []int64
	walkNs      []int64
}

// ruleAcc accumulates one rule family (keyed by source text) across every
// engine run of the solve.
type ruleAcc struct {
	attempted  int64
	derived    int64
	newFacts   int64
	suppressed int64
	earlyVeto  int64
	selfNs     int64
	// per-round breakdown, aggregated across engine runs by round ordinal
	// (capped; the tail folds into the last slot).
	roundDerived []int64
	roundNs      []int64
	// per-plan-step fan-out, aggregated across delta positions and runs.
	stepMatches []int64
	stepVetoes  []int64
}

// stratumAcc is one stratum's round/delta curve summed across engine runs.
type stratumAcc struct {
	delta []int64 // new-fact delta per round ordinal
	runs  []int64 // engine runs that reached the round
}

// New returns an empty collector.
func New() *Profile {
	return &Profile{rules: make(map[string]*ruleAcc)}
}

// SetAlgorithm records the solving algorithm's name.
func (p *Profile) SetAlgorithm(name string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.algorithm = name
	p.mu.Unlock()
}

// EnsureTargets sizes the per-target walk attribution for n targets.
// Idempotent; called once by the solver before the RR phase.
func (p *Profile) EnsureTargets(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.mu.Lock()
	if len(p.walkCount) < n {
		p.walkCount = make([]int64, n)
		p.walkMembers = make([]int64, n)
		p.walkNs = make([]int64, n)
	}
	p.mu.Unlock()
}

// SetTargetNames attaches the rendered target atoms to the attribution
// arrays (names are only needed at report time, so solvers defer the
// rendering cost until the solve is done).
func (p *Profile) SetTargetNames(names []string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.targetNames = names
	p.mu.Unlock()
}

// RecordWalk attributes one RR walk to target ti: the members it
// collected and its wall time. Safe for concurrent use by the parallel RR
// workers; counts are summed, so the totals are scheduling-independent.
func (p *Profile) RecordWalk(ti int, members int, ns int64) {
	if p == nil || ti < 0 || ti >= len(p.walkCount) {
		return
	}
	atomic.AddInt64(&p.walkCount[ti], 1)
	atomic.AddInt64(&p.walkMembers[ti], int64(members))
	atomic.AddInt64(&p.walkNs[ti], ns)
}

// RecordPlan records the solve's join-planning totals plus the runtime
// early-veto count (check-hoist savings actually realized), reconciling
// the profile against the plan.summary journal event.
func (p *Profile) RecordPlan(built, hits, reordered int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.plan = &PlanProfile{Built: built, Hits: hits, Reordered: reordered}
	p.mu.Unlock()
}

// RecordPhase appends one named phase duration (build, rrgen, select).
func (p *Profile) RecordPhase(name string, ns int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.phases = append(p.phases, PhaseProfile{Phase: name, Ns: ns})
	p.mu.Unlock()
}

// RecordArena records the resident RR-arena size.
func (p *Profile) RecordArena(bytes int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.arena = bytes
	p.mu.Unlock()
}

// RecordHotNodes records the hottest WD-graph candidate nodes by RR-set
// membership (the memberOf CSR degree), pre-ranked by the caller.
func (p *Profile) RecordHotNodes(nodes []HotNode) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.hot = nodes
	p.mu.Unlock()
}

// roundSlot maps a 1-based round ordinal to its capped slot index.
func roundSlot(round int) int {
	if round < 1 {
		round = 1
	}
	if round > maxRoundsTracked {
		round = maxRoundsTracked
	}
	return round - 1
}

// grow extends s to hold index i, returning the (possibly reallocated)
// slice.
func grow(s []int64, i int) []int64 {
	for len(s) <= i {
		s = append(s, 0)
	}
	return s
}

// EngineRun records one fixpoint evaluation. The goroutine evaluating the
// fixpoint owns it — the one that called engine.Run, or a pipelined run's
// helper — and calls every mutating method but Finish, which the caller
// runs after the fixpoint has stopped. A nil *EngineRun (from a nil
// Profile) is a no-op.
type EngineRun struct {
	p     *Profile
	names []string // rule index -> source text

	round       int // current global round ordinal (1-based)
	stratum     int
	stratumRnd  int // current round ordinal within the stratum
	counters    []*JoinCounters
	newByRule   []int64
	derByRule   []int64
	roundDer    [][]int64 // [rule][roundSlot]
	roundNs     [][]int64
	strataDelta [][]int64 // [stratum][roundSlot]
	strataRuns  [][]int64
}

// StartEngine opens the recording of one engine run over the given rules
// (ruleNames[i] labels rule i). Returns nil — the universal no-op — on a
// nil Profile.
func (p *Profile) StartEngine(ruleNames []string) *EngineRun {
	if p == nil {
		return nil
	}
	n := len(ruleNames)
	return &EngineRun{
		p:         p,
		names:     ruleNames,
		newByRule: make([]int64, n),
		derByRule: make([]int64, n),
		roundDer:  make([][]int64, n),
		roundNs:   make([][]int64, n),
	}
}

// NewCounters allocates one goroutine-private counter block for the run
// (the engine uses one per run; Finish sums every block). bodyLens[i] is rule i's positive-body length, sizing the
// per-step arrays. Nil on a nil run.
func (r *EngineRun) NewCounters(bodyLens []int) *JoinCounters {
	if r == nil {
		return nil
	}
	n := len(bodyLens)
	c := &JoinCounters{
		Attempted:   make([]int64, n),
		Suppressed:  make([]int64, n),
		StepMatches: make([][]int64, n),
		StepVetoes:  make([][]int64, n),
	}
	for i, bl := range bodyLens {
		c.StepMatches[i] = make([]int64, bl)
		c.StepVetoes[i] = make([]int64, bl)
	}
	r.counters = append(r.counters, c)
	return c
}

// BeginRound marks the start of one semi-naive round in stratum si with
// the given delta (new facts visible to the round).
func (r *EngineRun) BeginRound(si, delta int) {
	if r == nil {
		return
	}
	r.round++
	if si != r.stratum || r.round == 1 {
		r.stratum, r.stratumRnd = si, 0
	}
	r.stratumRnd++
	if si >= maxStrataTracked {
		si = maxStrataTracked - 1
	}
	for len(r.strataDelta) <= si {
		r.strataDelta = append(r.strataDelta, nil)
		r.strataRuns = append(r.strataRuns, nil)
	}
	slot := roundSlot(r.stratumRnd)
	r.strataDelta[si] = grow(r.strataDelta[si], slot)
	r.strataRuns[si] = grow(r.strataRuns[si], slot)
	r.strataDelta[si][slot] += int64(delta)
	r.strataRuns[si][slot]++
}

// RuleFired records one fired instantiation of rule ri on the engine's
// deterministic emit path; added reports the head fact was first derived
// (the dedup signal).
func (r *EngineRun) RuleFired(ri int, added bool) {
	if r == nil {
		return
	}
	r.derByRule[ri]++
	if added {
		r.newByRule[ri]++
	}
	slot := roundSlot(r.round)
	r.roundDer[ri] = grow(r.roundDer[ri], slot)
	r.roundDer[ri][slot]++
}

// RuleTime attributes ns of pass wall time to rule ri in the current
// round.
func (r *EngineRun) RuleTime(ri int, ns int64) {
	if r == nil || ns == 0 {
		return
	}
	slot := roundSlot(r.round)
	r.roundNs[ri] = grow(r.roundNs[ri], slot)
	r.roundNs[ri][slot] += ns
}

// Finish merges the completed run into the profile. Must be called after
// the fixpoint has stopped; safe to call concurrently with other runs' Finish
// (the Magic variants profile per-RR subgraph fixpoints from parallel RR
// workers).
func (r *EngineRun) Finish() {
	if r == nil {
		return
	}
	p := r.p
	p.mu.Lock()
	defer p.mu.Unlock()
	p.runs++
	for ri, name := range r.names {
		var att, sup, veto int64
		for _, c := range r.counters {
			att += c.Attempted[ri]
			sup += c.Suppressed[ri]
			for _, v := range c.StepVetoes[ri] {
				veto += v
			}
		}
		if att == 0 && r.derByRule[ri] == 0 && veto == 0 {
			continue // rule never participated in this run
		}
		acc := p.rules[name]
		if acc == nil {
			acc = &ruleAcc{}
			p.rules[name] = acc
		}
		acc.attempted += att
		acc.suppressed += sup
		acc.earlyVeto += veto
		acc.derived += r.derByRule[ri]
		acc.newFacts += r.newByRule[ri]
		for slot, n := range r.roundDer[ri] {
			acc.roundDerived = grow(acc.roundDerived, slot)
			acc.roundDerived[slot] += n
		}
		for slot, ns := range r.roundNs[ri] {
			acc.roundNs = grow(acc.roundNs, slot)
			acc.roundNs[slot] += ns
			acc.selfNs += ns
		}
		for _, c := range r.counters {
			for s, m := range c.StepMatches[ri] {
				acc.stepMatches = grow(acc.stepMatches, s)
				acc.stepMatches[s] += m
			}
			for s, v := range c.StepVetoes[ri] {
				acc.stepVetoes = grow(acc.stepVetoes, s)
				acc.stepVetoes[s] += v
			}
		}
	}
	for si := range r.strataDelta {
		for len(p.strata) <= si {
			p.strata = append(p.strata, stratumAcc{})
		}
		for slot, d := range r.strataDelta[si] {
			p.strata[si].delta = grow(p.strata[si].delta, slot)
			p.strata[si].runs = grow(p.strata[si].runs, slot)
			p.strata[si].delta[slot] += d
			p.strata[si].runs[slot] += r.strataRuns[si][slot]
		}
	}
}

// JoinCounters is one goroutine's private per-rule counter block inside
// one engine run. The join hot loops increment plain int64s (no atomics —
// the block is goroutine-private); Finish folds the blocks together at run
// end. Count totals are sums over a fixed partition of the same work, so
// they are identical at every Parallelism level.
type JoinCounters struct {
	// Attempted counts fully matched instantiations (pre-gate) per rule.
	Attempted []int64
	// Suppressed counts gate-vetoed instantiations per rule.
	Suppressed []int64
	// StepMatches[r][s] counts bindings surviving join step s of rule r —
	// the per-plan-step fan-out, aggregated over delta positions.
	StepMatches [][]int64
	// StepVetoes[r][s] counts partial bindings cut at step s by checks the
	// planner hoisted below instantiation completion — the realized
	// check-hoist savings.
	StepVetoes [][]int64
}
