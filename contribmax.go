package contribmax

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"contribmax/internal/analysis"
	"contribmax/internal/ast"
	"contribmax/internal/cm"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/im"
	"contribmax/internal/magic"
	"contribmax/internal/obs"
	"contribmax/internal/obs/journal"
	"contribmax/internal/optimize"
	"contribmax/internal/parser"
	"contribmax/internal/prof"
	"contribmax/internal/provenance"
	"contribmax/internal/solvecache"
	"contribmax/internal/wdgraph"
)

// Re-exported core types. The aliases make the internal packages' types
// part of the public API without duplicating them.
type (
	// Term is a datalog term: variable or constant.
	Term = ast.Term
	// Atom is a relational atom R(t1, ..., tn).
	Atom = ast.Atom
	// Rule is a probabilistic datalog rule.
	Rule = ast.Rule
	// Program is a set of probabilistic datalog rules.
	Program = ast.Program

	// Input is a CM problem instance (program, database, T1, T2, k).
	Input = cm.Input
	// Options tunes the CM algorithms (θ policy, randomness source).
	Options = cm.Options
	// Result is a CM algorithm's outcome: seeds, contribution estimate,
	// and the cost statistics the paper's figures report.
	Result = cm.Result
	// Stats carries per-run cost measurements.
	Stats = cm.Stats
	// OPTResult is the outcome of the exhaustive optimum search.
	OPTResult = cm.OPTResult
	// Estimator is the Monte-Carlo contribution oracle over the full WD
	// graph.
	Estimator = cm.Estimator

	// ThetaSpec selects the number of RR sets.
	ThetaSpec = im.ThetaSpec

	// EvalStats summarizes one datalog evaluation run.
	EvalStats = engine.Stats

	// WDGraph is the Weighted Derivation graph of Definition 3.1.
	WDGraph = wdgraph.Graph

	// DerivationTree is a derivation tree of an output tuple (Section II
	// of the paper); see Explain.
	DerivationTree = provenance.Tree

	// MetricsRegistry collects counters, gauges, and histograms from every
	// layer of a solve when handed to Options.Obs (nil disables all
	// collection at zero cost); see NewMetricsRegistry.
	MetricsRegistry = obs.Registry
	// TraceSpan is a node of a phase-timing trace tree; hand the root to
	// Options.Trace and render it afterwards. See StartTrace.
	TraceSpan = obs.Span

	// Journal is the structured solve event stream: hand one to
	// Options.Journal and every phase of the solve (graph build, fixpoint
	// rounds, RR batches, adaptive IMM rounds, greedy selection) emits
	// typed events into it — buffered in memory, optionally mirrored to a
	// JSONL sink. A nil Journal costs nothing. See NewJournal.
	Journal = journal.Journal
	// JournalOptions configures NewJournal (buffer capacity, JSONL sink).
	JournalOptions = journal.Options
	// JournalEvent is one journal entry: sequence number, timestamp, run
	// ID, type tag, and exactly one typed payload.
	JournalEvent = journal.Event

	// SolveCache memoizes built WD graphs and finalized RR collections
	// across solves, keyed by content fingerprints (database, program,
	// evaluation config, rng identity). Hand one to Options.Cache and
	// repeated solves of the same instance replay instead of rebuilding —
	// byte-identically. Safe for concurrent use; see NewSolveCache.
	SolveCache = solvecache.Cache
	// CacheIdentity names a solve's inputs to the cache (Options.CacheID).
	// The Rand field asserts the identity of the rng stream — required for
	// RR-collection reuse, since the multiset depends on the draws; leave
	// it empty (with a caller-supplied Rand) to cache graphs only.
	CacheIdentity = solvecache.Identity
	// SolveCacheStats is a point-in-time snapshot of a cache's hit, miss,
	// eviction, and byte accounting.
	SolveCacheStats = solvecache.Stats

	// RuntimeProfiler is the solve-scoped EXPLAIN ANALYZE collector: hand
	// one (NewRuntimeProfiler) to Options.Profile and the solve records
	// per-rule fixpoint accounting, per-stratum convergence curves, and
	// RR-phase attribution without perturbing results; render it afterwards
	// with Report. A nil profiler costs nothing.
	RuntimeProfiler = prof.Profile
	// RuntimeProfile is the finalized profile artifact (schema
	// contribmax/profile/v1): rules ranked by self-time, targets by walk
	// time, plus planner and phase reconciliation. WriteText renders the
	// cmrun -explain text tree, WriteJSON the JSON artifact.
	RuntimeProfile = prof.RuntimeProfile

	// Diagnostic is one static-analysis finding (severity, stable code,
	// source position, message); see Analyze.
	Diagnostic = analysis.Diagnostic
	// AnalysisOptions configures Analyze (extensional schema, query roots).
	AnalysisOptions = analysis.Options
	// Severity grades a Diagnostic.
	Severity = analysis.Severity
)

// Diagnostic severities, in ascending order.
const (
	SeverityInfo    = analysis.Info
	SeverityWarning = analysis.Warning
	SeverityError   = analysis.Error
)

// NewMetricsRegistry returns an empty metrics registry for Options.Obs.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewSolveCache returns a solve cache bounded to maxBytes of resident
// graph and RR-collection payload (LRU-evicted; maxBytes <= 0 uses the
// 256 MiB default). Share one cache across all solves of a process.
func NewSolveCache(maxBytes int64) *SolveCache { return solvecache.New(maxBytes) }

// StartTrace opens a root trace span for Options.Trace. End it (or its
// children) and render the phase tree with its Render method.
func StartTrace(name string) *TraceSpan { return obs.StartSpan(name) }

// NewJournal returns a journal for Options.Journal. An empty runID gets a
// fresh random run ID (see NewRunID); Close flushes and reports any sink
// write error.
func NewJournal(runID string, opts JournalOptions) *Journal { return journal.New(runID, opts) }

// NewRunID returns a fresh random run identifier for correlating a solve's
// journal, metrics, and logs.
func NewRunID() string { return journal.NewRunID() }

// NewRuntimeProfiler returns an empty runtime profiler for Options.Profile.
// One profiler observes one solve; call Report on it after the solve
// returns.
func NewRuntimeProfiler() *RuntimeProfiler { return prof.New() }

// V returns a variable term.
func V(name string) Term { return ast.V(name) }

// C returns a constant term.
func C(name string) Term { return ast.C(name) }

// NewAtom builds an atom.
func NewAtom(pred string, terms ...Term) Atom { return ast.NewAtom(pred, terms...) }

// ParseProgram parses probabilistic datalog source text. See
// internal/parser for the grammar; briefly:
//
//	0.8 r1: dealsWith(A, B) :- dealsWith(B, A).
func ParseProgram(src string) (*Program, error) { return parser.ParseProgram(src) }

// ParseProgramFile reads and parses a program file.
func ParseProgramFile(path string) (*Program, error) { return parser.ParseProgramFile(path) }

// ParseProgramLoose parses program text without the well-formedness
// validation ParseProgram runs, so semantically ill-formed programs still
// yield an AST. Pair it with Analyze to get the full positioned diagnostic
// list instead of the first validation error.
func ParseProgramLoose(src string) (*Program, error) { return parser.ParseProgramLoose(src) }

// ParseFacts parses ground atoms ("exports(france, wine).") from source
// text.
func ParseFacts(src string) ([]Atom, error) { return parser.ParseFacts(src) }

// ParseFactsFile reads and parses a fact file.
func ParseFactsFile(path string) ([]Atom, error) { return parser.ParseFactsFile(path) }

// ParseAtom parses a single atom, e.g. "dealsWith(usa, iran)".
func ParseAtom(src string) (Atom, error) { return parser.ParseAtom(src) }

// Database wraps the storage layer with convenience loaders.
type Database struct {
	*db.Database
}

// NewDatabase returns an empty database.
func NewDatabase() Database { return Database{db.NewDatabase()} }

// InsertAll inserts ground atoms, ignoring duplicates. It returns the
// number of newly added facts and the first error encountered (non-ground
// atoms are errors).
func (d Database) InsertAll(facts []Atom) (added int, err error) {
	for _, f := range facts {
		_, _, fresh, err := d.InsertAtom(f)
		if err != nil {
			return added, err
		}
		if fresh {
			added++
		}
	}
	return added, nil
}

// LoadDatabase parses fact text into a fresh database.
func LoadDatabase(factSrc string) (Database, error) {
	d := NewDatabase()
	facts, err := ParseFacts(factSrc)
	if err != nil {
		return d, err
	}
	_, err = d.InsertAll(facts)
	return d, err
}

// LoadDatabaseFile loads facts from a file: a binary snapshot when the
// path ends in ".cmdb" (see Database.SaveSnapshot), a textual fact file
// otherwise.
func LoadDatabaseFile(path string) (Database, error) {
	if strings.HasSuffix(path, ".cmdb") {
		inner, err := db.LoadSnapshot(path)
		if err != nil {
			return Database{}, err
		}
		return Database{inner}, nil
	}
	facts, err := ParseFactsFile(path)
	if err != nil {
		return Database{}, err
	}
	d := NewDatabase()
	_, err = d.InsertAll(facts)
	return d, err
}

// ProbFact is a ground fact with a probability, for databases whose tuples
// (not only rules) are uncertain.
type ProbFact = parser.ProbFact

// ParseProbFacts parses a fact file with optional leading probabilities:
// "0.9 exports(france, wine)."
func ParseProbFacts(src string) ([]ProbFact, error) { return parser.ParseProbFacts(src) }

// ApplyFactProbabilities encodes tuple-level uncertainty in the pure
// rule-probability model, following footnote 2 of the paper: every
// probabilistic fact R(c...) @ p is stored in an auxiliary replica
// relation R_base, and a ground copy rule
//
//	p: R(c...) :- R_base(c...).
//
// is added to the program, so a random execution includes the fact with
// probability p. It returns the extended program and inserts the replica
// facts into d. Candidate sets (T1) should then name the R_base facts.
//
// It is an error if the program already mentions an R_base relation, or if
// R appears as an extensional predicate elsewhere in the program while
// also receiving copy rules (mixing certain edb tuples and probabilistic
// tuples of one relation requires routing the certain ones through a
// probability-1 ProbFact).
func ApplyFactProbabilities(prog *Program, facts []ProbFact, d Database) (*Program, error) {
	out := prog.Clone()
	used := map[string]bool{}
	for _, r := range out.Rules {
		used[r.Label] = true
	}
	baseOf := map[string]string{}
	n := 0
	for _, pf := range facts {
		if !pf.Atom.IsGround() {
			return nil, fmt.Errorf("contribmax: probabilistic fact %s is not ground", pf.Atom)
		}
		if pf.Prob < 0 || pf.Prob > 1 {
			return nil, fmt.Errorf("contribmax: probability %g outside [0,1] for %s", pf.Prob, pf.Atom)
		}
		pred := pf.Atom.Predicate
		base, ok := baseOf[pred]
		if !ok {
			base = pred + "_base"
			for _, r := range prog.Rules {
				if r.Head.Predicate == base {
					return nil, fmt.Errorf("contribmax: auxiliary relation %s collides with a program predicate", base)
				}
				for _, b := range r.Body {
					if b.Predicate == base {
						return nil, fmt.Errorf("contribmax: auxiliary relation %s collides with a program predicate", base)
					}
				}
			}
			baseOf[pred] = base
		}
		replica := pf.Atom.Rename(base)
		if _, _, _, err := d.InsertAtom(replica); err != nil {
			return nil, err
		}
		var label string
		for {
			n++
			label = fmt.Sprintf("pf%d", n)
			if !used[label] {
				break
			}
		}
		used[label] = true
		out.Add(ast.Rule{Label: label, Prob: pf.Prob, Head: pf.Atom.Clone(), Body: []ast.Atom{replica}})
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("contribmax: %w", err)
	}
	return out, nil
}

// Analyze runs the static analyzer over prog: safety and range
// restriction, probability validation, arity consistency, undefined and
// unreachable predicates, negation through recursion, Magic-Sets
// applicability, recursion shape, query hierarchy, and dead rules, each
// reported with a stable code (CM000–CM019, see docs/DIALECT.md) and source
// positions when the program was parsed from text. The same checks gate
// every CM algorithm by default (see Options.SkipAnalysis); call Analyze
// directly for the full finding list rather than the first error.
func Analyze(prog *Program, opts AnalysisOptions) []Diagnostic {
	return analysis.Analyze(prog, opts)
}

// AnalyzeWithDB is Analyze with the extensional schema and query roots
// derived from a database and target atoms, matching the gate the CM
// algorithms run in front of an Input.
func AnalyzeWithDB(prog *Program, d Database, targets []Atom) []Diagnostic {
	edb := map[string]int{}
	for _, name := range d.RelationNames() {
		if rel, ok := d.Lookup(name); ok {
			edb[name] = rel.Arity()
		}
	}
	var roots []string
	seen := map[string]bool{}
	for _, a := range targets {
		if !seen[a.Predicate] {
			seen[a.Predicate] = true
			roots = append(roots, a.Predicate)
		}
	}
	return analysis.Analyze(prog, analysis.Options{EDB: edb, Roots: roots})
}

// ProgramProfile is the machine-readable output of the semantic program
// profiler: binding patterns per predicate, recursion and hierarchy
// classification, and prunable rules (see docs/ANALYSIS.md).
type ProgramProfile = analysis.ProgramProfile

// Profile runs every semantic analysis pass (adornment dataflow,
// recursion classification, hierarchy detection, dead-rule analysis) and
// returns the aggregate. The same information drives the CM013–CM019
// diagnostics and Options.Prune; cmlint -profile exposes it on files.
func Profile(prog *Program, opts AnalysisOptions) *ProgramProfile {
	return analysis.Profile(prog, opts)
}

// OptimizeReport counts the simplifications Optimize performed.
type OptimizeReport = optimize.Report

// Optimize returns a simplified copy of the program: constant-folded
// built-in guards, unsatisfiable rules dropped, self-supporting rules
// dropped, duplicate deterministic rules removed. The fixpoint and the
// contribution semantics are preserved.
func Optimize(prog *Program) (*Program, OptimizeReport) { return optimize.Program(prog) }

// NaiveCM solves the CM instance with the paper's Algorithm 2: full WD
// graph materialization followed by targeted RIS influence maximization.
func NaiveCM(in Input, opts Options) (*Result, error) { return cm.NaiveCM(in, opts) }

// MagicCM solves the CM instance with on-the-fly Magic-Sets subgraph
// construction (Algorithm 3): per sampled target, only the backward-
// reachable subgraph is materialized, then discarded.
func MagicCM(in Input, opts Options) (*Result, error) { return cm.MagicCM(in, opts) }

// MagicSampledCM is the paper's Magic^S CM: MagicCM with the RR sampling
// folded into subgraph construction, the recommended algorithm.
func MagicSampledCM(in Input, opts Options) (*Result, error) { return cm.MagicSampledCM(in, opts) }

// MagicGroupedCM is the paper's Magic^G CM variant: one grouped
// transformation and one shared subgraph for all sampled targets.
func MagicGroupedCM(in Input, opts Options) (*Result, error) { return cm.MagicGroupedCM(in, opts) }

// ExactCM solves the CM instance exactly by lifted inference when every
// target's cone is hierarchical (non-recursive, negation-free,
// self-join-free, nested-or-disjoint existential variables), and falls
// back to MagicCM sampling otherwise (Result.Stats.ExactFallback names
// the reason). Exact answers carry no sampling error: EstContribution and
// SeedGains are closed-form edge-percolation probabilities.
func ExactCM(in Input, opts Options) (*Result, error) { return cm.ExactCM(in, opts) }

// DNFCM solves the CM instance by Monte-Carlo possible-world sampling
// over per-target reachability DNFs from the provenance layer — an
// estimator with per-variable lineage, independent of the RIS machinery,
// used to cross-validate the samplers. Falls back to MagicCM when a
// lineage exceeds the clause budget.
func DNFCM(in Input, opts Options) (*Result, error) { return cm.DNFCM(in, opts) }

// ExactContribution evaluates C(S ⇝ T2) exactly for a specific seed set
// on a hierarchical instance (errors when ineligible).
func ExactContribution(in Input, seeds []Atom, opts Options) (float64, error) {
	return cm.ExactContribution(in, seeds, opts)
}

// ExactQueryProbability computes the exact edge-percolation probability
// that target is derivable, by lifted inference over its reachability
// lineage (errors when the cone is not hierarchical).
func ExactQueryProbability(prog *Program, d Database, target Atom) (float64, error) {
	return cm.ExactQueryProbability(prog, d.Database, target)
}

// GreedyMCOptions tunes GreedyMCCM.
type GreedyMCOptions = cm.GreedyMCOptions

// GreedyMCCM is the pre-RIS greedy baseline (Kempe et al.): full WD graph
// plus Monte-Carlo marginal-gain re-simulation per candidate per round.
// Same guarantee, far slower — kept for the ablation benchmark.
func GreedyMCCM(in Input, opts GreedyMCOptions) (*Result, error) { return cm.GreedyMCCM(in, opts) }

// NewEstimator builds a Monte-Carlo contribution oracle for the instance
// (materializes the full WD graph; meant for validation and small studies).
func NewEstimator(in Input) (*Estimator, error) { return cm.NewEstimator(in) }

// BruteForceOPT computes the (RR-estimated) optimum by exhaustive search
// over all k-subsets of T1. Feasible only for small T1.
func BruteForceOPT(in Input, rrSets int, rng *rand.Rand) (*OPTResult, error) {
	return cm.BruteForceOPT(in, rrSets, rng)
}

// Explain returns the most probable derivation tree of target — the
// complementary "how was this derived?" question to CM's "which inputs
// matter most?". For positive programs only the Magic-Sets-relevant
// subgraph is materialized; render the result with
// tree.Render(d.Symbols()).
//
// ok is false when target is not derivable from d under prog.
func Explain(prog *Program, d Database, target Atom) (tree *DerivationTree, ok bool, err error) {
	g, root, found, err := relevantGraph(prog, d, target)
	if err != nil || !found {
		return nil, false, err
	}
	tree, ok = provenance.BestDerivation(g, root)
	return tree, ok, nil
}

// relevantGraph materializes the WD subgraph relevant to target (via the
// Magic-Sets rewriting when the program is positive; the full graph
// otherwise) and locates target's node.
func relevantGraph(prog *Program, d Database, target Atom) (*wdgraph.Graph, wdgraph.NodeID, bool, error) {
	if !target.IsGround() {
		return nil, 0, false, fmt.Errorf("contribmax: target %s is not ground", target)
	}
	scratch := d.Scratch(prog.EDBs())
	var g *wdgraph.Graph
	if tr, terr := magic.Transform(prog, []Atom{target}); terr == nil {
		eng, err := engine.New(tr.Program, scratch)
		if err != nil {
			return nil, 0, false, err
		}
		b := wdgraph.NewBuilder(tr.Projection())
		if _, err := eng.Run(engine.Options{Listener: b.Listener()}); err != nil {
			return nil, 0, false, err
		}
		g = b.Graph()
	} else {
		// Programs the transformation rejects (e.g. stratified negation)
		// fall back to the full graph of the positive rule firings.
		var err error
		g, _, err = wdgraph.Build(prog, scratch, wdgraph.BuildConfig{})
		if err != nil {
			return nil, 0, false, err
		}
	}
	tuple, err := d.InternAtom(target)
	if err != nil {
		return nil, 0, false, err
	}
	root, found := g.FactID(target.Predicate, tuple)
	return g, root, found, nil
}

// ExplainTopK returns up to k derivation trees of target, best first (see
// Explain for the single best). The trees are cycle-free; ok is false when
// target is not derivable.
func ExplainTopK(prog *Program, d Database, target Atom, k int) ([]*DerivationTree, error) {
	g, root, found, err := relevantGraph(prog, d, target)
	if err != nil || !found {
		return nil, err
	}
	return provenance.TopKDerivations(g, root, k, 0), nil
}

// DerivationProbability estimates the probability that target is derived
// in a random execution of the probabilistic program — the tuple semantics
// of probabilistic datalog. This is the conjunctive measure (a fact needs
// an instantiation with all body facts derived); contrast with
// Estimator.Contribution, the reachability-based marginal-contribution
// measure of the paper's Definition 3.4.
func DerivationProbability(prog *Program, d Database, target Atom, samples int, rng *rand.Rand) (float64, error) {
	return cm.DerivationProbability(prog, d.Database, target, samples, rng)
}

// Eval evaluates a (probabilistic) datalog program to its deterministic
// fixpoint P(D): all facts derivable by some execution. Derived facts are
// inserted into the database's idb relations.
func Eval(prog *Program, d Database) (EvalStats, error) {
	eng, err := engine.New(prog, d.Database)
	if err != nil {
		return EvalStats{}, err
	}
	return eng.Run(engine.Options{})
}

// BuildWDGraph materializes the full WD graph of (prog, d) per Definition
// 3.1, including a node for every edb fact. The evaluation runs on a
// scratch copy sharing d's edb relations, so d itself is not mutated.
func BuildWDGraph(prog *Program, d Database) (*WDGraph, error) {
	g, _, err := wdgraph.Build(prog, d.Scratch(prog.EDBs()), wdgraph.BuildConfig{})
	return g, err
}
