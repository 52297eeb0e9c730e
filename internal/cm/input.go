// Package cm implements the paper's Contribution Maximization algorithms:
// NaiveCM (Algorithm 2), MagicCM (Algorithm 3), Magic^S CM (Algorithm 3
// with in-construction sampling, Section IV-B2), and Magic^G CM (the
// grouped variant of Remark 1), plus a Monte-Carlo contribution estimator
// and a near-exact OPT oracle for the case study of Section V-C.
package cm

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"contribmax/internal/analysis"
	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/im"
	"contribmax/internal/magic"
	"contribmax/internal/obs"
	"contribmax/internal/obs/journal"
	"contribmax/internal/planner"
	"contribmax/internal/prof"
	"contribmax/internal/solvecache"
)

// Input is one CM problem instance: find the k-size subset of T1 with the
// maximal expected contribution to T2 (Definition 3.6).
type Input struct {
	Program *ast.Program
	DB      *db.Database
	// T1 is the candidate set of edb facts; nil means "all edb facts in
	// the database" (the paper's default experimental setting).
	T1 []ast.Atom
	// T2 is the target set of output (idb) facts.
	T2 []ast.Atom
	// K is the seed-set size.
	K int
}

// Options tunes the algorithms.
type Options struct {
	// Theta selects the number of RR sets (see im.ThetaSpec). The zero
	// value uses the paper's default: 30% of |T2|.
	Theta im.ThetaSpec
	// Adaptive switches to IMM-style adaptive sampling (Remark 2 of the
	// paper): the RR-set count is derived online from a certified lower
	// bound on OPT instead of Theta. Theta.Epsilon / Theta.Delta /
	// Theta.MaxAuto parameterize it. Each IMM round draws its RR sets as
	// one batch of pre-seeded slots, so adaptive results are deterministic
	// at every Parallelism level too.
	Adaptive bool
	// Rand drives all sampling. nil means a fixed-seed PCG source, making
	// runs reproducible by default.
	Rand *rand.Rand
	// SIPS selects the Magic-Sets sideways-information-passing strategy
	// for the Magic variants (see magic.SIPS); the default LeftToRight is
	// the textbook strategy.
	SIPS magic.SIPS
	// RankCandidates additionally fills Result.Ranking with every
	// candidate's *individual* estimated contribution, computed from the
	// same RR pool. The paper's Examples 1.1/3.7 turn on the difference
	// between the top-k individually ranked tuples and the jointly optimal
	// k-set; this exposes both sides.
	RankCandidates bool
	// MaxSeedsPerRelation, when positive, caps how many selected seeds may
	// come from any one database relation — the diversification constraint
	// proposed in the paper's conclusions (set to 1 to force every seed
	// from a different table). Selection becomes greedy under a partition
	// matroid (1/2-approximation of the constrained optimum).
	MaxSeedsPerRelation int
	// SkipAnalysis disables the static-analysis gate that prepare runs in
	// front of every algorithm (the zero value keeps it on). The gate
	// rejects programs with error-severity findings — unsafe rules, arity
	// clashes with the database schema, out-of-range probabilities,
	// negation through recursion — before any graph is built. Skipping is
	// for callers that already analyzed the program (e.g. a server linting
	// at load time) or construct programs the analyzer provably accepts;
	// ast.Program.Validate still runs as a cheap backstop.
	SkipAnalysis bool
	// Prune runs the analyzer's provably-sound dead-rule elimination
	// (analysis.Prune, unreachable criterion only) over the program before
	// any rewriting or graph construction: rules whose head predicate lies
	// outside the T2 predicates' dependency cone are dropped. Such rules
	// cannot appear in any target derivation, so every solver output —
	// seeds, gains, estimates, RR statistics — is byte-identical with or
	// without pruning; only the evaluated program (and hence build work
	// and graph-size stats on programs with dead rules) shrinks.
	// Stats.RulesTotal / Stats.RulesPruned report the effect.
	Prune bool
	// Parallelism is the solver's single concurrency knob: the number of
	// RR-generation workers, 0 meaning one. Every RR set is a pre-seeded
	// slot — the master rng draws its target and the seeds of its own PCG
	// stream — so for a fixed seed every Parallelism level produces
	// byte-identical results regardless of scheduling or worker count. The
	// workers run MagicCM's per-target subgraph constructions (one per
	// target per batch of slots), Magic^S CM's gated evaluations,
	// groundings (at most one per target predicate per batch) and
	// propagations, reverse walks over the shared graph for NaiveCM /
	// Magic^G CM, and possible-world samples for DNFCM. Magic^S CM hands
	// each worker one target predicate's slots at a time, so a batch whose
	// targets share one predicate keeps one worker busy until its
	// remaining gated slots are spread over all of them.
	//
	// When >= 2 it also pipelines *full-graph* builds (NaiveCM's, DNFCM's
	// and ExactCM's WD graph, Magic^G CM's union graph): the fixpoint runs
	// on a helper goroutine while the graph builder consumes its
	// derivations on the solve's (engine.Options.Parallelism; a build uses
	// two goroutines at every level >= 2, and per-tuple subgraph builds
	// stay sequential inside the already-parallel RR workers); the graph
	// is byte-identical at every level.
	Parallelism int
	// Obs, when non-nil, receives the pipeline metrics of the solve (cm.*,
	// rr.*, wdgraph.*, engine.*, imm.* — see internal/obs and
	// docs/OBSERVABILITY.md). nil disables all metric collection at the
	// cost of one pointer check per site. Obs, Trace, Journal and Profile
	// make up the solve's one instrument (internal/obs/instr), which the
	// layers below cm record through.
	Obs *obs.Registry
	// Trace, when non-nil, receives a child span per solve, named after
	// the requested algorithm, with nested phase spans (prepare → build →
	// lineage → rrgen → select, each phase the algorithm runs) carrying
	// duration and count attributes — the tree cmrun -stats prints. A
	// fallback to MagicCM nests its phases in a MagicCM span under the
	// requested algorithm's. The span tree is mutated only from the
	// calling goroutine.
	Trace *obs.Span
	// Journal, when non-nil, receives the solve's structured event stream
	// (see internal/obs/journal): solve.start/finish with a config
	// fingerprint (one of each per call, a fallback included),
	// per-fixpoint-round deltas and graph.build events for full-graph
	// builds, batched rr.batch generation stats, imm.round convergence
	// records in adaptive mode, and one select.iter per chosen seed.
	// Events carry the journal's run ID, correlating them with the
	// spans and metrics of the same solve. Journaling never perturbs the
	// solver: the same seed yields byte-identical results with or without
	// it. nil disables the stream at one pointer check per site.
	Journal *journal.Journal
	// Context, when non-nil, cancels a long-running solve: the RR
	// generation loops and the fixpoint evaluations underneath them check
	// it and return its error promptly (within one RR set or one
	// semi-naive round).
	Context context.Context
	// Cache, when non-nil, memoizes the expensive phases across solves:
	// full/grouped WD graphs and finalized RR collections, keyed by content
	// fingerprints of the database, program, targets, and effective RR
	// parameters (see internal/solvecache). A cached repeat of a solve
	// costs only the selection phase and returns byte-identical results;
	// Stats.CacheGraphHits/CacheRRHits report what was reused. Safe to
	// share one cache across concurrent solves and tenants.
	Cache *solvecache.Cache
	// CacheID optionally asserts content identities for the cache, letting
	// callers that already know a cheap identity (e.g. a hash of the fact
	// file and program text, plus a seed label for Rand) skip the
	// database-fingerprint pass. Zero-value fields are derived from the
	// inputs; see solvecache.Identity for the contract. Ignored without
	// Cache. When Rand is non-nil and CacheID.Rand is empty, RR collections
	// are NOT cached (the stream is unidentified); graph caching still
	// applies.
	CacheID solvecache.Identity
	// Profile, when non-nil, collects an EXPLAIN ANALYZE-style runtime
	// profile of the solve (see internal/prof): per-rule fixpoint
	// accounting, per-stratum delta curves, RR walk time and arena bytes
	// per target, hot WD-graph nodes, and planner/phase attribution. Like
	// every sink of the solve's instrument, profiling never perturbs the
	// solver (a profiled solve is byte-identical to an unprofiled one, and
	// the profile's counts are identical at every Parallelism level), and
	// nil disables collection at one pointer check per site. One Profile
	// should observe one solve; Report() renders it after the solve
	// returns.
	Profile *prof.Profile
}

// ctx returns the solve context, never nil.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

func (o Options) rng() *rand.Rand {
	if o.Rand != nil {
		return o.Rand
	}
	return rand.New(rand.NewPCG(0xC0FFEE, 0xD15EA5E))
}

// Result is the outcome of a CM algorithm run.
type Result struct {
	// Algorithm names the algorithm that produced the result.
	Algorithm string
	// Seeds is the selected k-size (or smaller, see im.Greedy) subset of
	// T1, in greedy selection order.
	Seeds []ast.Atom
	// EstContribution is the RIS estimate |T2|·coverage/θ of the seeds'
	// expected contribution to T2.
	EstContribution float64
	// SeedGains[i] is the marginal number of RR sets newly covered by
	// Seeds[i] during greedy selection — a per-seed importance signal.
	SeedGains []int
	// ExactGains[i] is the exact marginal contribution of Seeds[i] when the
	// exact lifted tier answered (ExactCM without fallback); nil for every
	// sampling algorithm, which reports integer RR coverage in SeedGains
	// instead.
	ExactGains []float64
	// Ranking, filled when Options.RankCandidates is set, lists every T1
	// candidate with its individual contribution estimate, sorted
	// descending (ties by first appearance). Selecting the top k of this
	// list is the single-tuple ranking the paper contrasts with CM's
	// joint selection.
	Ranking []CandidateScore
	// Stats records the cost measurements the paper's evaluation reports.
	Stats Stats

	// rrColl retains the RR collection for the selection phase.
	rrColl *im.RRCollection
	// pl is the solve's plan cache; the solve's close folds its counters
	// into Stats.
	pl *planner.Planner
}

// Stats carries the measurements plotted in the paper's Figures 2–5.
type Stats struct {
	NumRR int // RR sets generated (θ)
	// GraphBuilds counts WD (sub)graphs: the graph each RR set was drawn
	// from for the per-target Magic variants (one per RR set, whether it
	// was built or propagated over a grounding), the one shared graph for
	// NaiveCM and Magic^G CM.
	GraphBuilds int
	CoveredRR   int   // RR sets covered by the selected seeds
	TotalNodes  int64 // summed over those (sub)graphs
	TotalEdges  int64
	MaxNodes    int // largest single (sub)graph
	MaxEdges    int
	// PeakResidentSize is the largest graph size (nodes+edges) held in
	// memory at any point: the full graph for NaiveCM and Magic^G CM, the
	// largest per-RR subgraph for MagicCM / Magic^S CM (which discard each
	// subgraph after use, Section V-A) — or, for Magic^S CM, the largest
	// ground program of a target predicate a worker held
	// (magic.GroundStats.Size) when that is larger.
	PeakResidentSize int

	// Groundings counts Magic^S CM's groundings (unsampled evaluations of
	// the multi-seed Magic program of the targets of one predicate that a
	// batch drew, recorded for propagation): at most one per target
	// predicate per batch of RR slots. GroundAborts counts those that exceeded their cap and were
	// dropped. Both depend only on the solve's slots, so they are
	// identical at every Parallelism level.
	Groundings   int
	GroundAborts int

	BuildTime  time.Duration // graph construction time (all builds)
	RRGenTime  time.Duration // total RR generation incl. per-RR builds
	SelectTime time.Duration // greedy maximum-coverage phase
	TotalTime  time.Duration

	// AdaptiveLowerBound is IMM's certified lower bound on OPT (adaptive
	// mode only); AdaptiveCapped reports the MaxRR cap was hit.
	AdaptiveLowerBound float64
	AdaptiveCapped     bool

	// RulesTotal is the input program's rule count; RulesPruned how many
	// of them dead-rule elimination removed before evaluation (always 0
	// unless Options.Prune is set).
	RulesTotal  int
	RulesPruned int

	// Join-planning totals. PlansBuilt counts plans computed (cache
	// misses), PlanCacheHits plans served from the solve-wide shape-keyed
	// cache, PlanAtomsReordered plan positions deviating from written body
	// order summed over built plans. Deterministic: a fixed configuration
	// yields the same counts on every run, at every Parallelism level.
	PlansBuilt         int64
	PlanCacheHits      int64
	PlanAtomsReordered int64

	// Exact lifted tier (all zero unless ExactCM answered exactly).
	// ExactTargets counts targets with a derivable lineage, LineageClauses /
	// LineageVars the normalized clause and variable totals over them, and
	// LineageTime the reachability-lineage extraction phase.
	ExactTargets   int
	LineageClauses int
	LineageVars    int
	LineageTime    time.Duration
	// ExactFallback names the reason an ExactCM or DNFCM solve fell back to
	// MagicCM sampling ("" when the requested tier answered, or for other
	// algorithms).
	ExactFallback string

	// DNFSamples counts the possible worlds DNFCM sampled (0 elsewhere).
	DNFSamples int

	// Solve-cache interaction (all 0 without Options.Cache). Hits mean the
	// phase was skipped entirely and its output reused; the graph/RR cost
	// stats above still describe the original computation, so cold and
	// warm runs report the same shape. CacheBytesReused is the resident
	// size of the reused entries.
	CacheGraphHits   int64
	CacheGraphMisses int64
	CacheRRHits      int64
	CacheRRMisses    int64
	CacheBytesReused int64
}

// AvgGraphSize returns the average constructed-graph size (nodes+edges) per
// build — the y-axis of Figures 2 and 4.
func (s Stats) AvgGraphSize() float64 {
	if s.GraphBuilds == 0 {
		return 0
	}
	return float64(s.TotalNodes+s.TotalEdges) / float64(s.GraphBuilds)
}

// PerRRTime returns the amortized time to produce one RR set — the y-axis
// of Figure 3. For NaiveCM this amortizes the one-time full-graph
// construction over the RR sets, as the paper does.
func (s Stats) PerRRTime() time.Duration {
	if s.NumRR == 0 {
		return 0
	}
	return (s.BuildTime + s.RRGenTime) / time.Duration(s.NumRR)
}

// CandidateScore is one candidate's individual contribution estimate.
type CandidateScore struct {
	// Fact is the candidate input fact.
	Fact ast.Atom
	// Coverage is the number of RR sets containing the candidate.
	Coverage int
	// EstContribution is |T2|·Coverage/θ — the RIS estimate of the
	// candidate's individual expected contribution to T2.
	EstContribution float64
}

// FactHandle identifies a ground fact by predicate and interned tuple.
type FactHandle struct {
	Pred  string
	Tuple db.Tuple
}

func (f FactHandle) key() string { return f.Pred + "\x00" + f.Tuple.Key() }

// instance is a resolved Input: candidates and targets interned against the
// database symbol table, plus the program the algorithms must evaluate
// (the input program, or its pruned form under Options.Prune).
type instance struct {
	in         Input
	candidates []FactHandle
	candOf     map[string]im.CandidateID // fact key -> candidate id
	targets    []FactHandle
	// prog is the program to evaluate/transform. Candidate enumeration,
	// scratch databases, and constant interning always use the ORIGINAL
	// in.Program so that pruning cannot perturb symbol tables, relation
	// attachment, or the T1-defaulting candidate order.
	prog        *ast.Program
	rulesTotal  int
	rulesPruned int
}

// prepare validates and resolves an Input. Unless opts.SkipAnalysis is set
// it runs the full static analyzer over the program against the database
// schema and the T2 predicates, rejecting error-severity findings with
// source positions; Program.Validate runs either way as a cheap backstop.
// With opts.Prune it additionally applies reachability-based dead-rule
// elimination toward the T2 predicates.
func prepare(in Input, opts Options) (*instance, error) {
	if in.Program == nil || in.DB == nil {
		return nil, fmt.Errorf("cm: nil program or database")
	}
	if err := in.Program.Validate(); err != nil {
		return nil, fmt.Errorf("cm: %w", err)
	}
	if !opts.SkipAnalysis {
		if err := analysis.FirstError(analysis.Analyze(in.Program, analysis.OptionsFor(in.DB, in.T2))); err != nil {
			return nil, fmt.Errorf("cm: %w", err)
		}
	}
	if in.K <= 0 {
		return nil, fmt.Errorf("cm: K must be positive, got %d", in.K)
	}
	if len(in.T2) == 0 {
		return nil, fmt.Errorf("cm: empty target set T2")
	}
	inst := &instance{
		in:         in,
		candOf:     make(map[string]im.CandidateID),
		prog:       in.Program,
		rulesTotal: len(in.Program.Rules),
	}
	if opts.Prune {
		pr := analysis.Prune(in.Program, analysis.PruneOptions{Roots: analysis.OptionsFor(in.DB, in.T2).Roots})
		inst.prog = pr.Program
		inst.rulesPruned = len(pr.Pruned)
	}

	// Pre-intern every constant of the program so that no symbol-table
	// writes happen during (possibly parallel) evaluation: the transformed
	// programs introduce no constants beyond the program's and the
	// targets' (which InternAtom below covers).
	for _, r := range in.Program.Rules {
		internAtomConsts(in.DB, r.Head)
		for _, b := range r.Body {
			internAtomConsts(in.DB, b)
		}
	}

	addCandidate := func(h FactHandle) {
		k := h.key()
		if _, dup := inst.candOf[k]; dup {
			return
		}
		inst.candOf[k] = im.CandidateID(len(inst.candidates))
		inst.candidates = append(inst.candidates, h)
	}

	if in.T1 == nil {
		// All edb facts, in deterministic (relation creation, insertion)
		// order.
		edb := map[string]bool{}
		for _, p := range in.Program.EDBs() {
			edb[p] = true
		}
		for _, name := range in.DB.RelationNames() {
			if !edb[name] {
				continue
			}
			rel, _ := in.DB.Lookup(name)
			for i := 0; i < rel.Len(); i++ {
				addCandidate(FactHandle{Pred: name, Tuple: rel.Tuple(db.TupleID(i))})
			}
		}
	} else {
		for _, a := range in.T1 {
			h, err := handleOf(in.DB, a)
			if err != nil {
				return nil, fmt.Errorf("cm: T1 atom %s: %w", a, err)
			}
			if rel, ok := in.DB.Lookup(a.Predicate); !ok {
				return nil, fmt.Errorf("cm: T1 atom %s: unknown relation", a)
			} else if _, present := rel.Contains(h.Tuple); !present {
				return nil, fmt.Errorf("cm: T1 atom %s is not a database fact", a)
			}
			addCandidate(h)
		}
	}
	if len(inst.candidates) == 0 {
		return nil, fmt.Errorf("cm: empty candidate set T1")
	}

	seenT2 := map[string]bool{}
	for _, a := range in.T2 {
		h, err := handleOf(in.DB, a)
		if err != nil {
			return nil, fmt.Errorf("cm: T2 atom %s: %w", a, err)
		}
		if !in.Program.IsIDB(a.Predicate) {
			return nil, fmt.Errorf("cm: T2 atom %s is not intensional", a)
		}
		if seenT2[h.key()] {
			continue
		}
		seenT2[h.key()] = true
		inst.targets = append(inst.targets, h)
	}
	return inst, nil
}

// internAtomConsts interns the constant terms of an atom (variables are
// skipped).
func internAtomConsts(database *db.Database, a ast.Atom) {
	for _, t := range a.Terms {
		if t.IsConst() {
			database.Symbols().Intern(t.Name)
		}
	}
}

// handleOf interns a ground atom against the database symbol table.
func handleOf(database *db.Database, a ast.Atom) (FactHandle, error) {
	t, err := database.InternAtom(a)
	if err != nil {
		return FactHandle{}, err
	}
	return FactHandle{Pred: a.Predicate, Tuple: t}, nil
}

// atomOf converts a handle back to a ground atom.
func (inst *instance) atomOf(h FactHandle) ast.Atom {
	syms := inst.in.DB.Symbols()
	terms := make([]ast.Term, len(h.Tuple))
	for i, s := range h.Tuple {
		terms[i] = ast.C(syms.Name(s))
	}
	return ast.Atom{Predicate: h.Pred, Terms: terms}
}

// seedsToAtoms maps greedy-selected candidate ids to ground atoms.
func (inst *instance) seedsToAtoms(seeds []im.CandidateID) []ast.Atom {
	out := make([]ast.Atom, len(seeds))
	for i, s := range seeds {
		out[i] = inst.atomOf(inst.candidates[int(s)])
	}
	return out
}

// relationGroups assigns each candidate a dense group id per source
// relation, for the partition-matroid selection.
func (inst *instance) relationGroups() []int32 {
	ids := map[string]int32{}
	out := make([]int32, len(inst.candidates))
	for i, h := range inst.candidates {
		id, ok := ids[h.Pred]
		if !ok {
			id = int32(len(ids))
			ids[h.Pred] = id
		}
		out[i] = id
	}
	return out
}

// theta resolves the RR-set count for this instance.
func (inst *instance) theta(opts Options) int {
	return opts.Theta.Theta(len(inst.candidates), len(inst.targets), inst.in.K)
}
