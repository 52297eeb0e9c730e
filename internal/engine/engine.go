package engine

import (
	"context"
	"fmt"
	"sort"
	"time"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/obs/instr"
	"contribmax/internal/planner"
	"contribmax/internal/prof"
)

// FactRef identifies a ground fact as a tuple of a relation.
type FactRef struct {
	Rel *db.Relation
	ID  db.TupleID
}

// Derivation describes one fired rule instantiation. Body aliases an
// engine-internal buffer: listeners must copy it if they retain it past the
// callback.
type Derivation struct {
	// RuleIndex is the index of the rule in the program passed to New.
	RuleIndex int
	// Rule is the source rule.
	Rule *ast.Rule
	// Head is the derived fact.
	Head FactRef
	// HeadNew reports whether the head fact was first derived by this
	// instantiation (false when the fact already existed).
	HeadNew bool
	// Body holds the instantiated positive body facts, in body order.
	// Built-in and negated literals are filters, not facts, and do not
	// appear here.
	Body []FactRef
}

// DerivationListener observes every fired rule instantiation exactly once.
//
// The listener is always invoked from the goroutine that called Run —
// never concurrently — and the derivation stream is identical at every
// Options.Parallelism level: parallel evaluation buffers worker results
// and replays them in the sequential order. Listeners therefore need no
// synchronization of their own (wdgraph.Builder relies on this).
type DerivationListener func(d Derivation)

// FireGate decides whether a candidate rule instantiation fires. vars holds
// the instantiation's variable bindings indexed consistently with
// Engine.RuleVarNames(ruleIndex); it aliases an engine-internal buffer and
// must not be retained. Returning false suppresses the instantiation: no
// listener call and no head insertion.
type FireGate interface {
	ShouldFire(ruleIndex int, vars []db.Sym) bool
}

// ParallelSafeGate marks gates that parallel evaluation may consult from
// worker goroutines: ShouldFire must be safe for concurrent use and
// order-independent — its verdict a pure function of (ruleIndex, bindings),
// never of how many or in which order other instantiations were seen
// (magic.HashGate is the canonical implementation). When Options sets
// Parallelism >= 2 with a gate that does not implement this interface, the
// engine falls back to sequential evaluation rather than risk corrupting
// the gate's state; results are identical either way for conforming gates.
type ParallelSafeGate interface {
	FireGate
	// ParallelSafeFireGate is a marker; implementations do nothing.
	ParallelSafeFireGate()
}

// Options configures one evaluation run.
type Options struct {
	// Listener, if non-nil, observes every fired instantiation.
	Listener DerivationListener
	// Gate, if non-nil, can veto instantiations before they fire. With
	// Parallelism >= 2 the gate is consulted from worker goroutines and
	// must implement ParallelSafeGate (otherwise the run is evaluated
	// sequentially).
	Gate FireGate
	// MaxRounds bounds the number of semi-naive rounds as a safety net
	// against runaway programs; 0 means unbounded (datalog always
	// terminates, so this is belt-and-suspenders for debugging).
	MaxRounds int
	// DisableJoinReorder evaluates rule bodies strictly left to right
	// (after the delta atom) instead of the planned bound-first order, and
	// evaluates checks only on complete instantiations. Join order never
	// changes results; written order is the reference the differential
	// tests and the early-check benchmark compare the planner against.
	DisableJoinReorder bool
	// Parallelism, when >= 2, evaluates each semi-naive round on that many
	// worker goroutines: every rule's delta-tuple range is partitioned
	// into contiguous chunks, workers evaluate chunks into private
	// buffers, and the results are merged on the calling goroutine in
	// fixed (rule, partition) order. Relations (tuple ids included),
	// Stats, and the derivation stream are byte-identical to sequential
	// evaluation at every level; see docs/PERFORMANCE.md for the
	// determinism contract. 0 and 1 evaluate sequentially. Small rounds
	// below an internal work threshold run sequentially even when
	// parallelism is on — the output is identical by construction.
	Parallelism int
	// Context, when non-nil, is checked between semi-naive rounds;
	// cancellation aborts the run with the context's error. Checks are
	// per-round, so cancellation latency is one round of rule firing.
	Context context.Context
	// Instr, when non-nil, records the run (see internal/obs/instr): the
	// engine.* metrics, one engine.round event per semi-naive round from
	// the coordinator goroutine, and the rule-level runtime profile —
	// per-rule instantiation/dedup counts, per-plan-step join fan-out and
	// hoisted-check vetoes, wall time per rule per round, and per-stratum
	// delta curves, merged into the solve-scoped profile at run end.
	// Profile counts are recorded on deterministic paths, so they are
	// identical at every Parallelism level; times live in separate fields.
	// Nil costs one pointer check per site.
	Instr *instr.Instr
}

// Stats summarizes an evaluation run.
type Stats struct {
	Rounds         int
	Instantiations int64 // fired instantiations (post-gate)
	Suppressed     int64 // instantiations vetoed by the gate
	NewFacts       int64 // idb tuples first derived during the run
	Elapsed        time.Duration
	// FiredByRule[i] counts rule i's fired instantiations (indexes follow
	// the program's rule order) — the per-rule profile that identifies
	// which rules dominate evaluation cost.
	FiredByRule []int64
}

// HottestRule returns the index of the rule with the most fired
// instantiations, or -1 when nothing fired.
func (s Stats) HottestRule() int {
	best, bestN := -1, int64(0)
	for i, n := range s.FiredByRule {
		if n > bestN {
			best, bestN = i, n
		}
	}
	return best
}

// Engine evaluates one program over one database. Construct with New, then
// call Run once. An Engine is single-use and not safe for concurrent use.
type Engine struct {
	prog  *ast.Program
	db    *db.Database
	rules []*compiledRule
	ran   bool
}

// New compiles prog against database with per-engine planning and no plan
// cache: NewPlanned(prog, database, nil).
func New(prog *ast.Program, database *db.Database) (*Engine, error) {
	return NewPlanned(prog, database, nil)
}

// NewPlanned compiles prog against database. All predicates mentioned by
// the program are resolved (idb relations are created empty if absent), and
// each rule's join plan comes from the planner package: a greedy
// bound-first atom order per delta position, with every built-in or negated
// check evaluated at the earliest join step where its variables are bound,
// pruning doomed partial bindings instead of fully materializing them. pl,
// when non-nil, caches plans by rule shape across engines — the Magic
// variants compile thousands of engines per solve from the same adorned
// rule families, and each family plans once. A nil pl plans per-engine
// without caching.
func NewPlanned(prog *ast.Program, database *db.Database, pl *planner.Planner) (*Engine, error) {
	rules, err := compile(prog, database, pl)
	if err != nil {
		return nil, err
	}
	return &Engine{prog: prog, db: database, rules: rules}, nil
}

// RuleVarNames returns the variable slot names of rule ruleIndex, in slot
// order. Gates use this to map slot bindings back to source variables.
func (e *Engine) RuleVarNames(ruleIndex int) []string {
	return e.rules[ruleIndex].varNames
}

// Run evaluates to fixpoint. It may be called once.
func (e *Engine) Run(opts Options) (Stats, error) {
	if e.ran {
		return Stats{}, fmt.Errorf("engine: Run called twice")
	}
	e.ran = true
	start := time.Now()
	var stats Stats

	stats.FiredByRule = make([]int64, len(e.rules))
	par := opts.Parallelism
	if par >= 2 && opts.Gate != nil {
		if _, ok := opts.Gate.(ParallelSafeGate); !ok {
			par = 1
		}
	}
	ev := &evaluator{engine: e, opts: opts, par: par, stats: &stats}
	if pf := opts.Instr.Profile(); pf != nil {
		names := make([]string, len(e.rules))
		lens := make([]int, len(e.rules))
		for i, cr := range e.rules {
			names[i] = cr.src.String()
			lens[i] = len(cr.body)
		}
		ev.prof = pf.StartEngine(names)
		ev.profLens = lens
	}
	ev.seq.init(e, opts, ev.emitSequential)
	ev.seq.prof = ev.prof.NewCounters(ev.profLens)
	runErr := ev.run()
	stats.Suppressed += ev.seq.takeSuppressed()
	if ev.prof != nil {
		ev.prof.FlushRoundNs(ev.seq.prof)
		ev.prof.Finish()
	}

	stats.Elapsed = time.Since(start)
	opts.Instr.EngineRun(stats.Rounds, stats.Instantiations, stats.Suppressed, stats.NewFacts, stats.Elapsed)
	if runErr != nil {
		return stats, runErr
	}
	if opts.MaxRounds > 0 && stats.Rounds >= opts.MaxRounds {
		return stats, fmt.Errorf("engine: exceeded MaxRounds=%d", opts.MaxRounds)
	}
	return stats, nil
}

// evaluator holds the mutable state of one Run: the coordinator. The join
// machinery itself lives in joinRun so that the sequential path and every
// parallel worker share one implementation.
type evaluator struct {
	engine *Engine
	opts   Options
	par    int // effective parallelism (gate-safe), <2 means sequential
	stats  *Stats

	// prof records this run for the solve-scoped profiler (nil when
	// disabled); profLens caches per-rule body lengths for sizing worker
	// counter blocks, and stratum is the ordinal of the stratum currently
	// evaluating (set by run's stratum loop).
	prof     *prof.EngineRun
	profLens []int
	stratum  int

	// watermarks: processedLen[rel] is the tuple count of rel that has been
	// fully processed by previous rounds; roundLen[rel] is the count
	// snapshot at the start of the current round. Tuples with id in
	// [processedLen, roundLen) form the current delta. Workers read both
	// maps concurrently during a round; the coordinator writes them only
	// between rounds.
	processedLen map[*db.Relation]int
	roundLen     map[*db.Relation]int

	// seq is the coordinator's own join runner (sequential strata, fact
	// rules, and sub-threshold rounds of parallel strata).
	seq joinRun

	// headBuf is the sequential emit path's reusable head-tuple scratch
	// (Relation.Insert clones, so the buffer never escapes).
	headBuf db.Tuple

	// workers and tasks are the parallel execution state; see parallel.go.
	// busy[i] is worker i's busy time in the current parallel round.
	// mergeBody is the merge phase's reusable Derivation.Body scratch.
	workers   []*parWorker
	busy      []time.Duration
	tasks     []evalTask
	mergeBody []FactRef
}

func (ev *evaluator) run() error {
	e := ev.engine
	strata, err := Stratify(e.prog)
	if err != nil {
		return err
	}
	ev.processedLen = make(map[*db.Relation]int)
	ev.roundLen = make(map[*db.Relation]int)
	ev.seq.attach(ev)
	rels := map[*db.Relation]bool{}
	for _, r := range e.rules {
		rels[r.head.rel] = true
		for _, b := range r.body {
			rels[b.rel] = true
		}
		for _, c := range r.checks {
			if c.rel != nil {
				rels[c.rel] = true
			}
		}
	}
	// Deterministic iteration order for the relation set.
	relList := make([]*db.Relation, 0, len(rels))
	for rel := range rels {
		relList = append(relList, rel)
	}
	sort.Slice(relList, func(i, j int) bool { return relList[i].Name() < relList[j].Name() })

	for si, ruleIdxs := range strata {
		ev.stratum = si
		if err := ev.runStratum(ruleIdxs, relList); err != nil {
			return err
		}
		if ev.opts.MaxRounds > 0 && ev.stats.Rounds >= ev.opts.MaxRounds {
			return nil
		}
	}
	return nil
}

// ctxErr reports the run context's error, nil when no context was set.
func (ev *evaluator) ctxErr() error {
	if ev.opts.Context == nil {
		return nil
	}
	return ev.opts.Context.Err()
}

// runStratum evaluates one stratum's rules to fixpoint. At stratum entry
// all existing tuples count as unprocessed delta, so rules see everything
// derived by earlier strata exactly once.
func (ev *evaluator) runStratum(ruleIdxs []int, relList []*db.Relation) error {
	e := ev.engine
	for _, rel := range relList {
		ev.processedLen[rel] = 0
	}
	if ev.par >= 2 {
		ev.prebuildIndexes(ruleIdxs)
	}

	// Fact rules of this stratum fire once, before the first round.
	for _, ri := range ruleIdxs {
		if cr := e.rules[ri]; len(cr.body) == 0 {
			ev.seq.fireFact(cr)
		}
	}

	for {
		if ev.opts.MaxRounds > 0 && ev.stats.Rounds >= ev.opts.MaxRounds {
			return nil
		}
		if err := ev.ctxErr(); err != nil {
			return err
		}
		// Snapshot the round: delta = [processedLen, roundLen).
		hasDelta := false
		delta := int64(0)
		for _, rel := range relList {
			n := rel.Len()
			ev.roundLen[rel] = n
			if n > ev.processedLen[rel] {
				hasDelta = true
				delta += int64(n - ev.processedLen[rel])
			}
		}
		if !hasDelta {
			return nil
		}
		ev.stats.Rounds++
		ev.opts.Instr.EngineRound(ev.stats.Rounds, int(delta))
		ev.prof.BeginRound(ev.stratum, int(delta))
		if ev.par >= 2 {
			ev.runRoundParallel(ruleIdxs)
		} else {
			for _, ri := range ruleIdxs {
				cr := e.rules[ri]
				if len(cr.body) == 0 {
					continue
				}
				ev.applyRule(cr)
			}
		}
		for _, rel := range relList {
			ev.processedLen[rel] = ev.roundLen[rel]
		}
	}
}

// applyRule runs the semi-naive decomposition of one rule sequentially:
// one pass per body position i, where atom i ranges over the current delta
// of its relation, atoms before i range over strictly-old tuples, and atoms
// after i range over old-plus-delta tuples. This fires every instantiation
// exactly once across the whole run.
func (ev *evaluator) applyRule(cr *compiledRule) {
	for i := range cr.body {
		rel := cr.body[i].rel
		lo, hi := ev.processedLen[rel], ev.roundLen[rel]
		if lo >= hi || !ev.passViable(cr, i) {
			continue
		}
		ev.timedPass(cr, i, lo, hi)
	}
}

// timedPass runs one sequential pass on the coordinator's runner,
// attributing its wall time to the rule when profiling is on (timing wraps
// the pass; it never reorders or perturbs it).
func (ev *evaluator) timedPass(cr *compiledRule, deltaPos, lo, hi int) {
	if ev.prof == nil {
		ev.seq.pass(cr, deltaPos, lo, hi)
		return
	}
	t0 := time.Now()
	ev.seq.pass(cr, deltaPos, lo, hi)
	ev.prof.RuleTime(cr.index, int64(time.Since(t0)))
}

// passViable prunes a whole delta pass when any other atom's id range is
// empty (e.g. a strictly-old range before anything was processed): no
// instantiation can complete, regardless of join order.
func (ev *evaluator) passViable(cr *compiledRule, deltaPos int) bool {
	for j := range cr.body {
		if j == deltaPos {
			continue
		}
		jrel := cr.body[j].rel
		var max int
		if j < deltaPos {
			max = ev.processedLen[jrel]
		} else {
			max = ev.roundLen[jrel]
		}
		if max == 0 {
			return false
		}
	}
	return true
}

// emitSequential is the coordinator's emit path: insert the head, update
// stats, notify the listener. Parallel merges replay buffered worker
// results through an equivalent sequence (see mergeTasks), so the two
// paths produce identical observable effects.
func (ev *evaluator) emitSequential(cr *compiledRule, vars []db.Sym, body []FactRef) {
	headRel := cr.head.rel
	if cap(ev.headBuf) < cr.head.arity {
		ev.headBuf = make(db.Tuple, cr.head.arity)
	}
	ht := ev.headBuf[:cr.head.arity]
	for j, t := range cr.head.terms {
		if t.isVar {
			ht[j] = vars[t.slot]
		} else {
			ht[j] = t.sym
		}
	}
	id, added := headRel.Insert(ht)
	ev.stats.Instantiations++
	ev.stats.FiredByRule[cr.index]++
	if added {
		ev.stats.NewFacts++
	}
	ev.prof.RuleFired(cr.index, added)
	if ev.opts.Listener != nil {
		ev.opts.Listener(Derivation{
			RuleIndex: cr.index,
			Rule:      &cr.src,
			Head:      FactRef{Rel: headRel, ID: id},
			HeadNew:   added,
			Body:      body,
		})
	}
}

// joinRun executes rule passes for one goroutine: it owns the binding
// scratch and streams completed instantiations to emit. The watermark maps
// are shared with the coordinator and read-only for the duration of a
// pass.
type joinRun struct {
	engine *Engine
	// disableReorder selects written-order evaluation, which also evaluates
	// checks at instantiation completion instead of on the planner's step
	// schedule: that schedule is computed against plan order and need not
	// be bound-safe in written order.
	disableReorder bool
	gate           FireGate

	// processedLen/roundLen alias the evaluator's watermark maps.
	processedLen map[*db.Relation]int
	roundLen     map[*db.Relation]int

	// deltaLo/deltaHi bound the delta atom's id range for the current
	// pass (a sub-range of [processedLen, roundLen) under partitioning).
	deltaLo, deltaHi int

	// emit receives each completed, gate-approved instantiation. vars and
	// body alias this runner's scratch and are valid only for the call.
	emit func(cr *compiledRule, vars []db.Sym, body []FactRef)

	suppressed int64 // gate-vetoed instantiations since the last take

	// prof is this goroutine's private profiler counter block (nil when
	// profiling is off); the coordinator folds blocks at run end.
	prof *prof.JoinCounters

	// scratch buffers reused across instantiations.
	vars     []db.Sym
	bound    []bool
	bodyRefs []FactRef
	boundBuf db.Tuple
	checkBuf db.Tuple
}

func (jr *joinRun) init(e *Engine, opts Options, emit func(cr *compiledRule, vars []db.Sym, body []FactRef)) {
	jr.engine = e
	jr.disableReorder = opts.DisableJoinReorder
	jr.gate = opts.Gate
	jr.emit = emit
}

// attach points the runner at the evaluator's watermark maps.
func (jr *joinRun) attach(ev *evaluator) {
	jr.processedLen = ev.processedLen
	jr.roundLen = ev.roundLen
}

// takeSuppressed returns and resets the runner's suppressed count.
func (jr *joinRun) takeSuppressed() int64 {
	n := jr.suppressed
	jr.suppressed = 0
	return n
}

// fireFact handles a rule with no positive body atoms: a single
// instantiation with no variables (possibly guarded by ground checks, e.g.
// `p(a) :- lt(1, 2).`).
func (jr *joinRun) fireFact(cr *compiledRule) {
	jr.resetScratch(cr)
	if !jr.preChecksOK(cr) {
		return
	}
	jr.completeInstantiation(cr)
}

// pass evaluates one semi-naive pass of cr with the delta at body position
// deltaPos, restricted to delta ids in [lo, hi).
func (jr *joinRun) pass(cr *compiledRule, deltaPos, lo, hi int) {
	jr.deltaLo, jr.deltaHi = lo, hi
	jr.resetScratch(cr)
	if !jr.preChecksOK(cr) {
		return
	}
	jr.joinFrom(cr, deltaPos, 0)
}

// preChecksOK evaluates cr's ground (variable-free) checks, which hold for
// every instantiation of the pass or for none: a single failed comparison
// vetoes the whole pass before any scan.
func (jr *joinRun) preChecksOK(cr *compiledRule) bool {
	if jr.disableReorder {
		return true
	}
	for _, ci := range cr.preChecks {
		if !jr.evalCheck(&cr.checks[ci]) {
			return false
		}
	}
	return true
}

// resetScratch prepares the per-instantiation scratch buffers for cr.
func (jr *joinRun) resetScratch(cr *compiledRule) {
	n := len(cr.varNames)
	if cap(jr.vars) < n {
		jr.vars = make([]db.Sym, n)
		jr.bound = make([]bool, n)
	}
	jr.vars = jr.vars[:n]
	jr.bound = jr.bound[:n]
	for j := range jr.bound {
		jr.bound[j] = false
	}
	if cap(jr.bodyRefs) < len(cr.body) {
		jr.bodyRefs = make([]FactRef, len(cr.body))
	}
	jr.bodyRefs = jr.bodyRefs[:len(cr.body)]
}

// joinFrom matches body atoms in plan order: deltaPos first, then the
// remaining atoms bound-first (or left to right under
// DisableJoinReorder). step counts how many atoms have been matched.
func (jr *joinRun) joinFrom(cr *compiledRule, deltaPos, step int) {
	if step == len(cr.body) {
		jr.completeInstantiation(cr)
		return
	}
	// Determine which atom this step matches, and which checks it makes
	// evaluable (none early in written order).
	var pos int
	var sched []int
	if jr.disableReorder {
		pos = stepAtom(deltaPos, step)
	} else {
		pos = cr.plans[deltaPos][step]
		sched = cr.checksAt[deltaPos][step]
	}
	atom := &cr.body[pos]
	rel := atom.rel
	var minID, maxID int
	switch {
	case pos == deltaPos:
		minID, maxID = jr.deltaLo, jr.deltaHi
	case pos < deltaPos:
		minID, maxID = 0, jr.processedLen[rel]
	default:
		minID, maxID = 0, jr.roundLen[rel]
	}
	if minID >= maxID {
		return
	}
	if len(sched) > 0 {
		jr.scanAtom(cr, atom, pos, minID, maxID, func() {
			if jr.prof != nil {
				jr.prof.StepMatches[cr.index][step]++
			}
			// All variables of these checks were just bound by this step;
			// failing one prunes the partial binding and every join
			// extension under it.
			for _, ci := range sched {
				if !jr.evalCheck(&cr.checks[ci]) {
					if jr.prof != nil {
						jr.prof.StepVetoes[cr.index][step]++
					}
					return
				}
			}
			jr.joinFrom(cr, deltaPos, step+1)
		})
		return
	}
	jr.scanAtom(cr, atom, pos, minID, maxID, func() {
		if jr.prof != nil {
			jr.prof.StepMatches[cr.index][step]++
		}
		jr.joinFrom(cr, deltaPos, step+1)
	})
}

// stepAtom maps a step number to a body position: step 0 is the delta
// position; later steps walk the remaining positions in order.
func stepAtom(deltaPos, step int) int {
	if step == 0 {
		return deltaPos
	}
	if step <= deltaPos {
		return step - 1
	}
	return step
}

// scanAtom enumerates the tuples of atom's relation with id in
// [minID, maxID) that are consistent with the current bindings, extends the
// bindings, records the body fact, and calls next for each match. Bindings
// made here are rolled back before returning.
func (jr *joinRun) scanAtom(cr *compiledRule, atom *compiledAtom, pos, minID, maxID int, next func()) {
	rel := atom.rel
	// Build the bound-position mask and lookup tuple.
	if cap(jr.boundBuf) < atom.arity {
		jr.boundBuf = make(db.Tuple, atom.arity)
	}
	lookup := jr.boundBuf[:atom.arity]
	var mask uint32
	for j, t := range atom.terms {
		switch {
		case !t.isVar:
			mask |= 1 << uint(j)
			lookup[j] = t.sym
		case jr.bound[t.slot]:
			mask |= 1 << uint(j)
			lookup[j] = jr.vars[t.slot]
		}
	}

	tryTuple := func(id db.TupleID) {
		t := rel.Tuple(id)
		// Bind unbound variable positions, checking repeated variables.
		var newlyBound [31]int
		nNew := 0
		ok := true
		for j, term := range atom.terms {
			if !term.isVar {
				// Constants are always part of the lookup mask, so the index
				// path guarantees a match, and the scan path (mask==0) only
				// occurs for constant-free atoms.
				continue
			}
			if jr.bound[term.slot] {
				if jr.vars[term.slot] != t[j] {
					ok = false
					break
				}
				continue
			}
			jr.vars[term.slot] = t[j]
			jr.bound[term.slot] = true
			newlyBound[nNew] = term.slot
			nNew++
		}
		if ok {
			jr.bodyRefs[pos] = FactRef{Rel: rel, ID: id}
			next()
		}
		for k := 0; k < nNew; k++ {
			jr.bound[newlyBound[k]] = false
		}
	}

	if ids, usedIndex := rel.LookupPattern(mask, lookup); usedIndex {
		// ids are ascending; restrict to [minID, maxID).
		start := sort.Search(len(ids), func(i int) bool { return int(ids[i]) >= minID })
		for _, id := range ids[start:] {
			if int(id) >= maxID {
				break
			}
			tryTuple(id)
		}
		return
	}
	// No bound positions: scan the id range, verifying constants inline
	// (none exist when mask==0, but keep the check for clarity).
	for id := minID; id < maxID; id++ {
		tryTuple(db.TupleID(id))
	}
}

// completeInstantiation is called with all positive body atoms matched: it
// evaluates the rule's checks (an instantiation failing a check does not
// exist), consults the gate, and hands the instantiation to emit. Outside
// written order every check already ran — at pass level (ground) or at its
// earliest bound join step — with the same verdicts: built-ins are pure and
// negated relations are frozen by stratification, so evaluation time never
// changes a check's outcome.
func (jr *joinRun) completeInstantiation(cr *compiledRule) {
	if jr.disableReorder {
		for i := range cr.checks {
			if !jr.evalCheck(&cr.checks[i]) {
				return
			}
		}
	}
	if jr.prof != nil {
		jr.prof.Attempted[cr.index]++
	}
	if jr.gate != nil && !jr.gate.ShouldFire(cr.index, jr.vars) {
		jr.suppressed++
		if jr.prof != nil {
			jr.prof.Suppressed[cr.index]++
		}
		return
	}
	jr.emit(cr, jr.vars, jr.bodyRefs[:len(cr.body)])
}

// evalCheck evaluates one built-in or negated literal under the current
// (fully bound, by safety) variable bindings.
func (jr *joinRun) evalCheck(c *compiledCheck) bool {
	symOf := func(t atomTerm) db.Sym {
		if t.isVar {
			return jr.vars[t.slot]
		}
		return t.sym
	}
	if c.builtin {
		symbols := jr.engine.db.Symbols()
		return ast.EvalBuiltin(c.pred, symbols.Name(symOf(c.terms[0])), symbols.Name(symOf(c.terms[1])))
	}
	// Negated atom: succeed iff the tuple is absent. The relation was
	// fully computed by an earlier stratum (or is extensional), so the
	// check is stable.
	if cap(jr.checkBuf) < len(c.terms) {
		jr.checkBuf = make(db.Tuple, len(c.terms))
	}
	t := jr.checkBuf[:len(c.terms)]
	for i, term := range c.terms {
		t[i] = symOf(term)
	}
	_, present := c.rel.Contains(t)
	return !present
}
