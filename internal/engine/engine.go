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

// Derivation describes one fired rule instantiation. Body and HeadTuple
// alias engine-internal buffers: listeners must copy them if they retain
// them past the callback.
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
	// HeadTuple holds the head fact's symbols when HeadNew is set and is
	// nil otherwise. A pipelined run's listener must read a new head here,
	// not through Head.Rel (see DerivationListener).
	HeadTuple db.Tuple
	// Body holds the instantiated positive body facts, in body order.
	// Built-in and negated literals are filters, not facts, and do not
	// appear here.
	Body []FactRef
}

// DerivationListener observes every fired rule instantiation exactly once.
//
// The listener is always invoked from the goroutine that called Run —
// never concurrently — and the derivation stream is identical at every
// Options.Parallelism level, so listeners need no synchronization of their
// own (wdgraph.Builder relies on this).
//
// A pipelined run (see Options.Parallelism) calls the listener while the
// fixpoint, on another goroutine, keeps appending to the relations the
// program derives into, so the listener must not read those relations'
// tuples or lengths: a new head's symbols arrive in HeadTuple, and every
// derived body fact is a head delivered earlier in the stream. Relation
// names and the relations the run only reads are safe to use.
type DerivationListener func(d Derivation)

// FireGate decides whether a candidate rule instantiation fires. vars holds
// the instantiation's variable bindings indexed consistently with
// Engine.RuleVarNames(ruleIndex); it aliases an engine-internal buffer and
// must not be retained. Returning false suppresses the instantiation: no
// listener call and no head insertion.
type FireGate interface {
	ShouldFire(ruleIndex int, vars []db.Sym) bool
}

// Options configures one evaluation run.
type Options struct {
	// Listener, if non-nil, observes every fired instantiation.
	Listener DerivationListener
	// Gate, if non-nil, can veto instantiations before they fire. It is
	// consulted from one goroutine, the fixpoint's, at every Parallelism
	// level; a pipelined run's fixpoint goroutine is not the caller's.
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
	// Parallelism, when >= 2, pipelines a run that has a Listener: the
	// fixpoint evaluates sequentially on a helper goroutine and hands every
	// fired instantiation, in batches, to the listener, which runs beside
	// it on the calling goroutine. Every level above 1 runs this same
	// two-stage pipeline. A run without a listener, or over a database in
	// which a relation the program derives into already holds tuples,
	// evaluates sequentially at every level, as 0 and 1 always do.
	// Relations (tuple ids included), Stats, and the derivation stream are
	// byte-identical at every level; see docs/PERFORMANCE.md.
	Parallelism int
	// Context, when non-nil, is checked between semi-naive rounds;
	// cancellation aborts the run with the context's error. Checks are
	// per-round, so cancellation latency is one round of rule firing. A
	// pipelined run checks only after the listener has consumed the round,
	// so a listener that cancels stops the run at the same boundary as a
	// sequential run.
	Context context.Context
	// Instr, when non-nil, records the run (see internal/obs/instr): the
	// engine.* metrics, one engine.round event per semi-naive round, one
	// pipeline record per pipelined run, and the rule-level runtime
	// profile — per-rule instantiation/dedup counts, per-plan-step join
	// fan-out and hoisted-check vetoes, wall time per rule per round, and
	// per-stratum delta curves, merged into the solve-scoped profile at run
	// end. Counts are identical at every Parallelism level; times live in
	// separate fields. Nil costs one pointer check per site.
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

// Engine evaluates one program over one database. Construct with New,
// NewPlanned or Compiled.Bind, then call Run once. An Engine is single-use
// and not safe for concurrent use.
type Engine struct {
	c  *Compiled
	db *db.Database
	// rules are the compiled program's rules, with the facts Bind rebound;
	// rels[n] is relation number n in db.
	rules []*compiledRule
	rels  []*db.Relation
	ran   bool
}

// New compiles prog against database with per-engine planning and no plan
// cache: NewPlanned(prog, database, nil).
func New(prog *ast.Program, database *db.Database) (*Engine, error) {
	return NewPlanned(prog, database, nil)
}

// NewPlanned compiles prog for database's symbol table and binds it to
// database: Compile, then Compiled.Bind. All predicates mentioned by the
// program are resolved (idb relations are created empty if absent). pl,
// when non-nil, caches plans by rule shape across compilations, so
// programs that share a rule family plan it once; a nil pl plans without
// caching. A caller that evaluates one program many times compiles it once
// and binds it per run instead.
func NewPlanned(prog *ast.Program, database *db.Database, pl *planner.Planner) (*Engine, error) {
	c, err := Compile(prog, database.Symbols(), pl)
	if err != nil {
		return nil, err
	}
	return c.Bind(prog, database)
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
	stats := Stats{FiredByRule: make([]int64, len(e.rules))}
	ev := &evaluator{engine: e, opts: opts, stats: &stats}
	if pf := opts.Instr.Profile(); pf != nil {
		names := make([]string, len(e.rules))
		lens := make([]int, len(e.rules))
		for i, cr := range e.rules {
			names[i] = cr.src.String()
			lens[i] = len(cr.body)
		}
		ev.prof = pf.StartEngine(names)
		ev.counts = ev.prof.NewCounters(lens)
	}
	var runErr error
	if opts.Parallelism >= 2 && opts.Listener != nil && e.derivedEmpty() {
		runErr = ev.runPipelined()
	} else {
		runErr = ev.run()
	}
	ev.prof.Finish()

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

// derivedEmpty reports whether every relation the program derives into is
// empty. Then every derived tuple of the run reaches the listener as a new
// head before any derivation uses it as a body fact, which is what lets a
// pipelined listener work from the stream alone.
func (e *Engine) derivedEmpty() bool {
	for _, cr := range e.rules {
		if e.rels[cr.head.rel].Len() > 0 {
			return false
		}
	}
	return true
}

// evaluator holds the mutable state of one Run: the semi-naive watermarks,
// the join scratch, and the emit path to the listener.
type evaluator struct {
	engine *Engine
	opts   Options
	stats  *Stats

	// prof records this run for the solve-scoped profiler and counts holds
	// its join-level counters (both nil when disabled); stratum is the
	// ordinal of the stratum currently evaluating.
	prof    *prof.EngineRun
	counts  *prof.JoinCounters
	stratum int

	// watermarks, indexed by relation number: processedLen[n] is the tuple
	// count of relation n that has been fully processed by previous rounds;
	// roundLen[n] is the count snapshot at the start of the current round.
	// Tuples with id in [processedLen, roundLen) form the current delta.
	processedLen []int
	roundLen     []int

	// pipe carries derivations to the listener of a pipelined run (nil when
	// the listener, if any, is called in-line); see pipeline.go.
	pipe *pipe

	// scratch buffers reused across instantiations. headBuf never escapes:
	// Relation.Insert clones, and HeadTuple is valid only for the call.
	vars     []db.Sym
	bound    []bool
	bodyRefs []FactRef
	boundBuf db.Tuple
	checkBuf db.Tuple
	headBuf  db.Tuple
}

func (ev *evaluator) run() error {
	c := ev.engine.c
	if c.stratErr != nil {
		return c.stratErr
	}
	ev.processedLen = make([]int, len(c.rels))
	ev.roundLen = make([]int, len(c.rels))
	for si, ruleIdxs := range c.strata {
		ev.stratum = si
		if err := ev.runStratum(ruleIdxs); err != nil {
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
func (ev *evaluator) runStratum(ruleIdxs []int) error {
	e := ev.engine
	clear(ev.processedLen)

	// Fact rules of this stratum fire once, before the first round.
	for _, ri := range ruleIdxs {
		if cr := e.rules[ri]; len(cr.body) == 0 {
			ev.fireFact(cr)
		}
	}

	for {
		// A pipelined run's listener consumes everything fired so far
		// before the round-boundary checks, as a sequential run's has.
		if ev.pipe != nil && !ev.pipe.drain() {
			return errListenerStopped
		}
		if ev.opts.MaxRounds > 0 && ev.stats.Rounds >= ev.opts.MaxRounds {
			return nil
		}
		if err := ev.ctxErr(); err != nil {
			return err
		}
		// Snapshot the round: delta = [processedLen, roundLen).
		hasDelta := false
		delta := int64(0)
		for i, rel := range e.rels {
			n := rel.Len()
			ev.roundLen[i] = n
			if n > ev.processedLen[i] {
				hasDelta = true
				delta += int64(n - ev.processedLen[i])
			}
		}
		if !hasDelta {
			return nil
		}
		ev.stats.Rounds++
		ev.opts.Instr.EngineRound(ev.stats.Rounds, int(delta))
		ev.prof.BeginRound(ev.stratum, int(delta))
		for _, ri := range ruleIdxs {
			if cr := e.rules[ri]; len(cr.body) > 0 {
				ev.applyRule(cr)
			}
		}
		copy(ev.processedLen, ev.roundLen)
	}
}

// applyRule runs the semi-naive decomposition of one rule: one pass per
// body position i, where atom i ranges over the current delta of its
// relation, atoms before i range over strictly-old tuples, and atoms after
// i range over old-plus-delta tuples. This fires every instantiation
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

// timedPass runs one pass, attributing its wall time to the rule when
// profiling is on (timing wraps the pass; it never reorders or perturbs
// it).
func (ev *evaluator) timedPass(cr *compiledRule, deltaPos, lo, hi int) {
	if ev.prof == nil {
		ev.pass(cr, deltaPos, lo, hi)
		return
	}
	t0 := time.Now()
	ev.pass(cr, deltaPos, lo, hi)
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

// emit fires one completed, gate-approved instantiation: insert the head,
// update stats, and notify the listener — in-line, or through the pipe on
// a pipelined run.
func (ev *evaluator) emit(cr *compiledRule) {
	headRel := ev.engine.rels[cr.head.rel]
	if cap(ev.headBuf) < cr.head.arity {
		ev.headBuf = make(db.Tuple, cr.head.arity)
	}
	ht := ev.headBuf[:cr.head.arity]
	for j, t := range cr.head.terms {
		if t.isVar {
			ht[j] = ev.vars[t.slot]
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
	body := ev.bodyRefs[:len(cr.body)]
	switch {
	case ev.pipe != nil:
		ev.pipe.add(cr, id, added, ht, body)
	case ev.opts.Listener != nil:
		d := Derivation{RuleIndex: cr.index, Rule: &cr.src, Head: FactRef{Rel: headRel, ID: id}, HeadNew: added, Body: body}
		if added {
			d.HeadTuple = ht
		}
		ev.opts.Listener(d)
	}
}

// fireFact handles a rule with no positive body atoms: a single
// instantiation with no variables (possibly guarded by ground checks, e.g.
// `p(a) :- lt(1, 2).`).
func (ev *evaluator) fireFact(cr *compiledRule) {
	ev.resetScratch(cr)
	if !ev.preChecksOK(cr) {
		return
	}
	ev.completeInstantiation(cr)
}

// pass evaluates one semi-naive pass of cr with the delta at body position
// deltaPos, over delta ids in [lo, hi).
func (ev *evaluator) pass(cr *compiledRule, deltaPos, lo, hi int) {
	ev.resetScratch(cr)
	if !ev.preChecksOK(cr) {
		return
	}
	ev.joinFrom(cr, deltaPos, 0, lo, hi)
}

// preChecksOK evaluates cr's ground (variable-free) checks, which hold for
// every instantiation of the pass or for none: a single failed comparison
// vetoes the whole pass before any scan.
func (ev *evaluator) preChecksOK(cr *compiledRule) bool {
	if ev.opts.DisableJoinReorder {
		return true
	}
	for _, ci := range cr.preChecks {
		if !ev.evalCheck(&cr.checks[ci]) {
			return false
		}
	}
	return true
}

// resetScratch prepares the per-instantiation scratch buffers for cr.
func (ev *evaluator) resetScratch(cr *compiledRule) {
	n := len(cr.varNames)
	if cap(ev.vars) < n {
		ev.vars = make([]db.Sym, n)
		ev.bound = make([]bool, n)
	}
	ev.vars = ev.vars[:n]
	ev.bound = ev.bound[:n]
	for j := range ev.bound {
		ev.bound[j] = false
	}
	if cap(ev.bodyRefs) < len(cr.body) {
		ev.bodyRefs = make([]FactRef, len(cr.body))
	}
	ev.bodyRefs = ev.bodyRefs[:len(cr.body)]
}

// joinFrom matches body atoms in plan order: deltaPos first, over delta ids
// in [lo, hi), then the remaining atoms bound-first (or left to right under
// DisableJoinReorder). step counts how many atoms have been matched.
// Written order also evaluates checks only at instantiation completion: the
// planner's check schedule is computed against plan order and need not be
// bound-safe in written order.
func (ev *evaluator) joinFrom(cr *compiledRule, deltaPos, step, lo, hi int) {
	if step == len(cr.body) {
		ev.completeInstantiation(cr)
		return
	}
	// Determine which atom this step matches, and which checks it makes
	// evaluable (none early in written order).
	var pos int
	var sched []int
	if ev.opts.DisableJoinReorder {
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
		minID, maxID = lo, hi
	case pos < deltaPos:
		minID, maxID = 0, ev.processedLen[rel]
	default:
		minID, maxID = 0, ev.roundLen[rel]
	}
	if minID >= maxID {
		return
	}
	if len(sched) > 0 {
		ev.scanAtom(atom, pos, minID, maxID, func() {
			if ev.counts != nil {
				ev.counts.StepMatches[cr.index][step]++
			}
			// All variables of these checks were just bound by this step;
			// failing one prunes the partial binding and every join
			// extension under it.
			for _, ci := range sched {
				if !ev.evalCheck(&cr.checks[ci]) {
					if ev.counts != nil {
						ev.counts.StepVetoes[cr.index][step]++
					}
					return
				}
			}
			ev.joinFrom(cr, deltaPos, step+1, lo, hi)
		})
		return
	}
	ev.scanAtom(atom, pos, minID, maxID, func() {
		if ev.counts != nil {
			ev.counts.StepMatches[cr.index][step]++
		}
		ev.joinFrom(cr, deltaPos, step+1, lo, hi)
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
func (ev *evaluator) scanAtom(atom *compiledAtom, pos, minID, maxID int, next func()) {
	rel := ev.engine.rels[atom.rel]
	// Build the bound-position mask and lookup tuple.
	if cap(ev.boundBuf) < atom.arity {
		ev.boundBuf = make(db.Tuple, atom.arity)
	}
	lookup := ev.boundBuf[:atom.arity]
	var mask uint32
	for j, t := range atom.terms {
		switch {
		case !t.isVar:
			mask |= 1 << uint(j)
			lookup[j] = t.sym
		case ev.bound[t.slot]:
			mask |= 1 << uint(j)
			lookup[j] = ev.vars[t.slot]
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
			if ev.bound[term.slot] {
				if ev.vars[term.slot] != t[j] {
					ok = false
					break
				}
				continue
			}
			ev.vars[term.slot] = t[j]
			ev.bound[term.slot] = true
			newlyBound[nNew] = term.slot
			nNew++
		}
		if ok {
			ev.bodyRefs[pos] = FactRef{Rel: rel, ID: id}
			next()
		}
		for k := 0; k < nNew; k++ {
			ev.bound[newlyBound[k]] = false
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
// exist), consults the gate, and emits the instantiation. Outside written
// order every check already ran — at pass level (ground) or at its earliest
// bound join step — with the same verdicts: built-ins are pure and negated
// relations are frozen by stratification, so evaluation time never changes
// a check's outcome.
func (ev *evaluator) completeInstantiation(cr *compiledRule) {
	if ev.opts.DisableJoinReorder {
		for i := range cr.checks {
			if !ev.evalCheck(&cr.checks[i]) {
				return
			}
		}
	}
	if ev.counts != nil {
		ev.counts.Attempted[cr.index]++
	}
	if ev.opts.Gate != nil && !ev.opts.Gate.ShouldFire(cr.index, ev.vars) {
		ev.stats.Suppressed++
		if ev.counts != nil {
			ev.counts.Suppressed[cr.index]++
		}
		return
	}
	ev.emit(cr)
}

// evalCheck evaluates one built-in or negated literal under the current
// (fully bound, by safety) variable bindings.
func (ev *evaluator) evalCheck(c *compiledCheck) bool {
	symOf := func(t atomTerm) db.Sym {
		if t.isVar {
			return ev.vars[t.slot]
		}
		return t.sym
	}
	if c.builtin {
		symbols := ev.engine.db.Symbols()
		return ast.EvalBuiltin(c.pred, symbols.Name(symOf(c.terms[0])), symbols.Name(symOf(c.terms[1])))
	}
	// Negated atom: succeed iff the tuple is absent. The relation was
	// fully computed by an earlier stratum (or is extensional), so the
	// check is stable.
	if cap(ev.checkBuf) < len(c.terms) {
		ev.checkBuf = make(db.Tuple, len(c.terms))
	}
	t := ev.checkBuf[:len(c.terms)]
	for i, term := range c.terms {
		t[i] = symOf(term)
	}
	_, present := ev.engine.rels[c.rel].Contains(t)
	return !present
}
