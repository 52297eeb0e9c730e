// Package journal is the structured event stream of the CM pipeline: an
// append-only, bounded-buffer journal that every stage emits typed events
// into — solve start/finish with a config fingerprint, per-fixpoint-round
// delta sizes, per-RR-batch generation stats, IMM halving rounds, and
// per-CELF-iteration selection records. The in-memory tail lives in a ring
// buffer (replayable, subscribable for live progress); an optional sink
// receives every event as one JSON line (JSONL on disk).
//
// Like the rest of internal/obs, everything is nil-safe: a nil *Journal
// accepts every emit as a no-op, so instrumented code pays one pointer
// check when journaling is disabled and needs no conditional plumbing.
package journal

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
)

// EventType names one kind of journal event. The set is closed: consumers
// (cmjournal, the server SSE stream, the BENCH summarizer) switch on it.
type EventType string

const (
	// TypeSolveStart opens a run: algorithm, config fingerprint, instance
	// shape. Exactly one per solve.
	TypeSolveStart EventType = "solve.start"
	// TypeSolveFinish closes a run: seeds, coverage, estimate, duration,
	// error if any. Exactly one per solve.
	TypeSolveFinish EventType = "solve.finish"
	// TypeEngineRound is one semi-naive fixpoint round of a full-graph
	// build: round ordinal and delta size (new facts this round).
	TypeEngineRound EventType = "engine.round"
	// TypeGraphBuild records a completed full WD-graph construction
	// (NaiveCM, Magic^G CM; per-RR subgraph builds are too numerous and
	// are aggregated into rr.batch instead).
	TypeGraphBuild EventType = "graph.build"
	// TypeRRBatch is an aggregated slice of RR-set generation: one event
	// per ~batch of sets per worker, carrying batch and running totals.
	TypeRRBatch EventType = "rr.batch"
	// TypeIMMRound is one phase-1 halving round of adaptive (IMM-style)
	// sampling: the tested threshold x, the RR count spent, the estimate,
	// and the certified lower bound once found.
	TypeIMMRound EventType = "imm.round"
	// TypeSelectIter is one greedy/CELF selection iteration: the chosen
	// seed, its marginal gain, cumulative coverage, and a running ε-style
	// error proxy derived from RR coverage concentration.
	TypeSelectIter EventType = "select.iter"
	// TypePlanSummary summarizes the solve's join planning: plans built,
	// plan-cache hits, and atom positions reordered away from written
	// order. At most one per solve, emitted with the selection phase.
	TypePlanSummary EventType = "plan.summary"
	// TypeCacheSummary summarizes the solve's use of the solve cache: graph
	// and RR hit/miss counts and bytes reused. At most one per solve,
	// emitted right before solve.finish, and only when a cache is attached.
	TypeCacheSummary EventType = "cache.summary"
	// TypeEstimatorSummary summarizes an exact-tier or DNF-sampling solve:
	// lineage extraction totals, possible worlds sampled, and the fallback
	// reason when the tier rerouted to RIS sampling. At most one per
	// solve, emitted right before solve.finish by ExactCM / DNFCM.
	TypeEstimatorSummary EventType = "estimator.summary"
	// TypeProfileSummary summarizes the solve's runtime profile when one
	// was attached (cm.Options.Profile): engine/RR totals plus the top
	// rules by self-time. At most one per solve, emitted with the
	// selection phase; the full RuntimeProfile artifact is reported out of
	// band (cmrun -profile-json, SolveResponse.Profile).
	TypeProfileSummary EventType = "profile.summary"
	// TypeRRRoute records how a Magic^S CM solve drew its RR sets per
	// target-predicate group: grounded once and propagated, or evaluated
	// gated per RR set because the grounding cap tripped or the group had
	// too few repeat slots.
	// At most one per solve, emitted at the end of RR generation.
	TypeRRRoute EventType = "rr.route"
)

// Event is the envelope every journal entry shares. Exactly one payload
// pointer (matching Type) is non-nil; the rest are omitted from JSON.
type Event struct {
	// Seq is the journal-local sequence number, starting at 1. Contiguous
	// within a run; gaps after a ring-buffer eviction are visible to
	// replay consumers.
	Seq int64 `json:"seq"`
	// TNs is nanoseconds since the journal was opened (monotonic,
	// per-run; subtractable across events of the same run).
	TNs int64 `json:"t_ns"`
	// Run is the run ID the event belongs to (see NewRunID).
	Run string `json:"run"`
	// Type discriminates the payload.
	Type EventType `json:"type"`

	Solve   *SolveInfo   `json:"solve,omitempty"`
	Finish  *FinishInfo  `json:"finish,omitempty"`
	Round   *RoundInfo   `json:"round,omitempty"`
	Build   *BuildInfo   `json:"build,omitempty"`
	RR      *RRBatchInfo `json:"rr,omitempty"`
	IMM     *IMMInfo     `json:"imm,omitempty"`
	Iter    *IterInfo    `json:"iter,omitempty"`
	Plan    *PlanInfo    `json:"plan,omitempty"`
	Cache   *CacheInfo   `json:"cache,omitempty"`
	Est     *EstInfo     `json:"est,omitempty"`
	Profile *ProfileInfo `json:"profile,omitempty"`
	Route   *RouteInfo   `json:"route,omitempty"`
}

// SolveInfo is the solve.start payload.
type SolveInfo struct {
	Algorithm string `json:"algorithm"`
	// Fingerprint hashes the effective solve configuration (see
	// Fingerprint); two runs with equal fingerprints answered the same
	// question with the same knobs.
	Fingerprint string `json:"fingerprint"`
	K           int    `json:"k"`
	Candidates  int    `json:"candidates"`
	Targets     int    `json:"targets"`
	// Theta is the resolved RR-set count; 0 in adaptive mode (the count
	// is discovered online and reported by solve.finish / imm.round).
	Theta       int  `json:"theta"`
	Adaptive    bool `json:"adaptive,omitempty"`
	Parallelism int  `json:"parallelism,omitempty"`
}

// FinishInfo is the solve.finish payload.
type FinishInfo struct {
	Algorithm string `json:"algorithm"`
	// Seeds are the selected facts in greedy order, rendered as ground
	// atoms.
	Seeds           []string `json:"seeds"`
	CoveredRR       int      `json:"covered_rr"`
	NumRR           int      `json:"num_rr"`
	EstContribution float64  `json:"est_contribution"`
	DurationNs      int64    `json:"duration_ns"`
	Err             string   `json:"err,omitempty"`
}

// RoundInfo is the engine.round payload.
type RoundInfo struct {
	// Round is 1-based within one fixpoint evaluation.
	Round int `json:"round"`
	// Delta is the number of new facts derived this round.
	Delta int `json:"delta"`
}

// BuildInfo is the graph.build payload.
type BuildInfo struct {
	Nodes      int   `json:"nodes"`
	Edges      int   `json:"edges"`
	DurationNs int64 `json:"duration_ns"`
}

// RRBatchInfo is the rr.batch payload: one flushed batch of RR-set
// generation from one worker, with running per-worker totals.
type RRBatchInfo struct {
	// Worker identifies the generating goroutine (0 for sequential).
	Worker int `json:"worker"`
	// Sets / Members / Empty / MaxLen describe this batch alone.
	Sets    int `json:"sets"`
	Members int `json:"members"`
	Empty   int `json:"empty,omitempty"`
	MaxLen  int `json:"max_len"`
	// TotalSets / TotalMembers are this worker's running totals after the
	// batch (sum across workers for the global curve).
	TotalSets    int `json:"total_sets"`
	TotalMembers int `json:"total_members"`
	// ElapsedNs is wall time covered by the batch (first to last set).
	ElapsedNs int64 `json:"elapsed_ns"`
}

// IMMInfo is the imm.round payload.
type IMMInfo struct {
	// Round is the 1-based phase-1 halving round.
	Round int `json:"round"`
	// X is the OPT threshold tested this round.
	X float64 `json:"x"`
	// Theta is the cumulative RR-set count after this round.
	Theta int `json:"theta"`
	// Est is the round's coverage-based contribution estimate.
	Est float64 `json:"est"`
	// LB is the certified lower bound once established (0 until then).
	LB float64 `json:"lb,omitempty"`
}

// IterInfo is the select.iter payload.
type IterInfo struct {
	// I is the 0-based selection iteration.
	I int `json:"i"`
	// Seed is the chosen candidate, rendered as a ground atom.
	Seed string `json:"seed"`
	// Gain is the marginal number of RR sets newly covered.
	Gain int `json:"gain"`
	// Covered is the cumulative number of covered RR sets.
	Covered int `json:"covered"`
	// Coverage is Covered/θ — the fraction driving the RIS estimate.
	Coverage float64 `json:"coverage"`
	// ErrProxy is a running ε-style error proxy from coverage
	// concentration: sqrt((1-Coverage)/Covered), shrinking as coverage
	// concentrates (0 when nothing is covered yet — no information).
	ErrProxy float64 `json:"err_proxy"`
}

// PlanInfo is the plan.summary payload: the solve-wide join-planning
// totals. Built plus Hits counts the rule plans of every program the solve
// compiled — on MagicCM and Magic^S one program per target predicate —
// and Hits the rule families those programs share.
type PlanInfo struct {
	// Built counts plans computed (cache misses).
	Built int64 `json:"built"`
	// Hits counts plans served from the shape-keyed cache.
	Hits int64 `json:"hits"`
	// Reordered counts plan positions that deviate from written body
	// order, summed over built plans.
	Reordered int64 `json:"reordered"`
}

// CacheInfo is the cache.summary payload: how the solve interacted with
// the attached solve cache.
type CacheInfo struct {
	// GraphHits / GraphMisses count WD-graph cache lookups this solve made.
	GraphHits   int64 `json:"graph_hits"`
	GraphMisses int64 `json:"graph_misses"`
	// RRHits / RRMisses count RR-collection cache lookups.
	RRHits   int64 `json:"rr_hits"`
	RRMisses int64 `json:"rr_misses"`
	// BytesReused is the resident size of cached entries this solve reused
	// instead of recomputing.
	BytesReused int64 `json:"bytes_reused,omitempty"`
}

// EstInfo is the estimator.summary payload: the exact-tier / DNF-sampler
// telemetry of one solve.
type EstInfo struct {
	// Algorithm is the answering solver ("ExactCM", "DNFCM", or the
	// fallback's name when the tier rerouted).
	Algorithm string `json:"algorithm"`
	// Targets counts targets with a derivable lineage; Clauses / Vars the
	// normalized clause and variable totals over their DNFs.
	Targets int `json:"targets"`
	Clauses int `json:"clauses"`
	Vars    int `json:"vars"`
	// LineageNs is wall time spent extracting reachability lineages.
	LineageNs int64 `json:"lineage_ns"`
	// Samples counts sampled possible worlds (DNFCM only, 0 for exact).
	Samples int `json:"samples,omitempty"`
	// Fallback names why the solve rerouted to RIS sampling ("" when the
	// tier answered).
	Fallback string `json:"fallback,omitempty"`
}

// ProfileInfo is the profile.summary payload: the headline numbers of the
// solve's runtime profile. Counts are deterministic (identical at every
// Parallelism level); the *Ns fields are wall times and are not.
type ProfileInfo struct {
	Algorithm string `json:"algorithm"`
	// EngineRuns counts fixpoint evaluations profiled (1 for full-graph
	// algorithms, up to about θ for the per-tuple Magic variants: one per
	// gated RR set or grounding); Rules counts distinct rule families that
	// participated.
	EngineRuns int64 `json:"engine_runs"`
	Rules      int   `json:"rules"`
	// Attempted / Derived / NewFacts are the engine totals: fully matched
	// instantiations (pre-gate), fired instantiations (== the
	// engine.instantiations counter), and first derivations.
	Attempted int64 `json:"attempted"`
	Derived   int64 `json:"derived"`
	NewFacts  int64 `json:"new_facts"`
	// EarlyVetoes counts partial bindings cut by planner-hoisted checks.
	EarlyVetoes int64 `json:"early_vetoes,omitempty"`
	// EvalNs is the summed per-rule pass self time.
	EvalNs int64 `json:"eval_ns"`
	// Walks / WalkNs total the RR-phase reverse walks.
	Walks  int64 `json:"walks,omitempty"`
	WalkNs int64 `json:"walk_ns,omitempty"`
	// TopRules lists the hottest rules by self-time (bounded).
	TopRules []TopRule `json:"top_rules,omitempty"`
}

// TopRule is one hot rule in a profile.summary event.
type TopRule struct {
	Rule    string `json:"rule"`
	Derived int64  `json:"derived"`
	SelfNs  int64  `json:"self_ns"`
}

// NewRunID returns a fresh 16-hex-digit run identifier. IDs are random
// (crypto/rand), not sequential, so concurrent processes cannot collide.
func NewRunID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to a fixed
		// marker rather than panicking an otherwise-healthy solve.
		return "rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// FingerprintInput is the typed, versioned input of a solve fingerprint.
// Every field is hashed as a tagged, length-prefixed record, so two inputs
// differing in which field holds a value can never collide: ("a", "bc")
// and ("ab", "c") in adjacent fields hash differently. The zero value of a
// field still participates (tag plus empty/zero rendering), keeping the
// schema positionless but fixed.
type FingerprintInput struct {
	// Version names the hash schema; bump when fields are added or
	// reinterpreted so old and new fingerprints cannot be confused.
	// FillDefaults sets it; zero means "current".
	Version int

	// Identity of what was solved.
	Algorithm string // solver name, e.g. "MagicSampledCM"
	Database  string // database content identity (db.Fingerprint or a caller hash)
	Program   string // program content identity
	Target    string // hashed target list (order-sensitive)
	K         int

	// Instance shape.
	Candidates int
	Targets    int

	// Configuration knobs. Fields that only affect speed still participate
	// — the fingerprint identifies the full effective configuration.
	ThetaExplicit       int
	ThetaFraction       float64
	ThetaEpsilon        float64
	ThetaDelta          float64
	ThetaMaxAuto        int
	Adaptive            bool
	Parallelism         int
	MaxSeedsPerRelation int
	SIPS                string
	Prune               bool
}

// fingerprintVersion is the current FingerprintInput schema version.
const fingerprintVersion = 4

// Hash renders the input as tagged length-prefixed records and returns the
// FNV-1a 64 fingerprint. The rendering is pinned by golden tests: it may
// only change together with a Version bump.
func (in FingerprintInput) Hash() string {
	if in.Version == 0 {
		in.Version = fingerprintVersion
	}
	h := fnv.New64a()
	field := func(tag, val string) {
		fmt.Fprintf(h, "%s=%d:%s\x1f", tag, len(val), val)
	}
	field("v", fmt.Sprintf("%d", in.Version))
	field("algo", in.Algorithm)
	field("db", in.Database)
	field("prog", in.Program)
	field("target", in.Target)
	field("k", fmt.Sprintf("%d", in.K))
	field("cands", fmt.Sprintf("%d", in.Candidates))
	field("targets", fmt.Sprintf("%d", in.Targets))
	field("theta", fmt.Sprintf("%d", in.ThetaExplicit))
	field("frac", fmt.Sprintf("%g", in.ThetaFraction))
	field("eps", fmt.Sprintf("%g", in.ThetaEpsilon))
	field("delta", fmt.Sprintf("%g", in.ThetaDelta))
	field("maxauto", fmt.Sprintf("%d", in.ThetaMaxAuto))
	field("adaptive", fmt.Sprintf("%t", in.Adaptive))
	field("par", fmt.Sprintf("%d", in.Parallelism))
	field("maxseeds", fmt.Sprintf("%d", in.MaxSeedsPerRelation))
	field("sips", in.SIPS)
	field("prune", fmt.Sprintf("%t", in.Prune))
	return hex.EncodeToString(h.Sum(nil))
}

// ErrProxy computes the ε-style error proxy for a selection state with
// covered RR sets out of theta total: sqrt((1-f)/covered) with
// f = covered/theta. Intuition: the RIS estimate's relative deviation
// concentrates like 1/sqrt(covered), scaled by how much coverage is still
// missing. Returns 0 when covered or theta is 0.
func ErrProxy(covered, theta int) float64 {
	if covered <= 0 || theta <= 0 {
		return 0
	}
	f := float64(covered) / float64(theta)
	if f > 1 {
		f = 1
	}
	return math.Sqrt((1 - f) / float64(covered))
}

// RouteInfo is the rr.route payload: Magic^S CM's route counts. Each
// batch's slots form one group per target predicate. A group with n slots
// over d distinct targets and a first gated run that attempted A₁
// instantiations is grounded only when C·(n−d) > 1: one grounding of the
// multi-seed Magic program of its d targets, dropped once it fires more
// than C·(n−1)·A₁ instantiations.
// Every group's first slot is a gated evaluation; the other slots of
// grounded groups are propagations from their own target's seed, the
// rest gated evaluations.
type RouteInfo struct {
	// C is the cap factor.
	C float64 `json:"c"`
	// Targets counts distinct targets drawn, Slots the RR sets, Groups the
	// predicate groups (Grounded + CapTripped + TooFew); all three are
	// summed over the solve's batches.
	Targets int `json:"targets"`
	Slots   int `json:"slots"`
	Groups  int `json:"groups"`
	// Grounded counts groups drawn by propagation, GroundedSlots their
	// slots (first slots included).
	Grounded      int `json:"grounded"`
	GroundedSlots int `json:"grounded_slots"`
	// CapTripped counts groups whose grounding exceeded the cap; CapSlots
	// and CapA1 total their n and A₁.
	CapTripped int   `json:"cap_tripped"`
	CapSlots   int   `json:"cap_slots"`
	CapA1      int64 `json:"cap_a1"`
	// TooFew counts groups with C·(n−d) <= 1, TooFewSlots their slots.
	TooFew      int `json:"too_few"`
	TooFewSlots int `json:"too_few_slots"`
}
