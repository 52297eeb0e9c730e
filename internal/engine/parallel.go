package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"contribmax/internal/db"
)

// Parallel round execution.
//
// Why this is byte-identical to sequential evaluation: within one
// semi-naive round, every join reads only tuples with id below the round
// watermark (roundLen), and all inserts land above it — so the round's
// instantiation set is a pure function of the round-start database state,
// independent of insertion order within the round. Sequential evaluation
// enumerates instantiations in (rule, delta position, ascending delta id,
// plan order) order. The parallel path partitions each (rule, delta
// position) pass into contiguous delta-id chunks, workers enumerate each
// chunk in the identical nested-loop order into private buffers, and the
// coordinator replays the buffers in (rule, delta position, chunk start)
// order — exactly the sequential enumeration, including head tuple ids,
// HeadNew flags, Stats, and the listener stream. Chunk boundaries vary
// with Parallelism; the replay order does not.

// parMinWork is the per-round delta-work threshold (total delta tuples
// across viable passes) below which a parallel run executes the round on
// the coordinator instead: rounds are independent, so output is unchanged,
// and tiny rounds lose more to goroutine startup than workers recover.
const parMinWork = 256

// evalTask is one contiguous chunk of a rule's semi-naive delta pass. The
// claiming worker fills in where its results live in that worker's arenas.
type evalTask struct {
	cr       *compiledRule
	deltaPos int
	lo, hi   int // delta id sub-range [lo, hi)

	worker     int   // index of the worker that executed the task
	headLo     int   // start offset in the worker's heads arena
	bodyLo     int   // start offset in the worker's bodies arena
	resLo      int   // start offset in the worker's resolved arena
	n          int   // number of buffered instantiations
	suppressed int64 // gate-vetoed instantiations in this chunk
}

// parWorker is one evaluation worker: a private joinRun plus flat result
// arenas, reused across rounds. heads holds head-tuple symbols (stride =
// head arity), bodies holds body tuple ids (stride = body length — the
// relation of each body position is static per rule, so ids suffice and
// the arenas stay pointer-free, which keeps the GC from rescanning them),
// and resolved holds the pre-resolved head tuple id, or -1 when the head
// was not present at round start (strides are per-rule constants,
// recovered from the task during merge).
type parWorker struct {
	jr       joinRun
	heads    []db.Sym
	bodies   []db.TupleID
	resolved []db.TupleID
}

// emitBuffered is the worker-side emit path: buffer the instantiation
// instead of inserting. The head tuple id is pre-resolved here against the
// relation's key map — frozen for the whole worker phase — which moves the
// hash lookups off the sequential merge and into the parallel phase.
func (w *parWorker) emitBuffered(cr *compiledRule, vars []db.Sym, body []FactRef) {
	for _, t := range cr.head.terms {
		if t.isVar {
			w.heads = append(w.heads, vars[t.slot])
		} else {
			w.heads = append(w.heads, t.sym)
		}
	}
	ht := db.Tuple(w.heads[len(w.heads)-cr.head.arity:])
	if id, ok := cr.head.rel.Contains(ht); ok {
		w.resolved = append(w.resolved, id)
	} else {
		w.resolved = append(w.resolved, -1)
	}
	for i := range body {
		w.bodies = append(w.bodies, body[i].ID)
	}
}

// ensureWorkers lazily creates the worker pool for this run.
func (ev *evaluator) ensureWorkers() {
	if ev.workers != nil {
		return
	}
	ev.workers = make([]*parWorker, ev.par)
	ev.busy = make([]time.Duration, ev.par)
	for i := range ev.workers {
		w := &parWorker{}
		w.jr.init(ev.engine, ev.opts, w.emitBuffered)
		w.jr.attach(ev)
		w.jr.prof = ev.prof.NewCounters(ev.profLens)
		ev.workers[i] = w
	}
}

// prebuildIndexes creates every binding-pattern index the stratum's join
// plans can probe, so the worker phase never takes db.Relation's
// index-creation write lock. The mask at each plan step is static: it
// covers constant positions plus variables bound by earlier plan atoms —
// the same computation scanAtom performs at run time.
func (ev *evaluator) prebuildIndexes(ruleIdxs []int) {
	for _, ri := range ruleIdxs {
		cr := ev.engine.rules[ri]
		n := len(cr.body)
		for d := 0; d < n; d++ {
			bound := make([]bool, len(cr.varNames))
			for step := 0; step < n; step++ {
				var pos int
				if ev.opts.DisableJoinReorder {
					pos = stepAtom(d, step)
				} else {
					pos = cr.plans[d][step]
				}
				atom := &cr.body[pos]
				var mask uint32
				for j, t := range atom.terms {
					if !t.isVar || bound[t.slot] {
						mask |= 1 << uint(j)
					}
				}
				atom.rel.EnsureIndex(mask)
				for _, t := range atom.terms {
					if t.isVar {
						bound[t.slot] = true
					}
				}
			}
		}
	}
}

// runRoundParallel evaluates one semi-naive round on the worker pool:
// chunk every viable (rule, delta position) pass, fan the chunks out,
// wait, and replay the buffered results in task order.
func (ev *evaluator) runRoundParallel(ruleIdxs []int) {
	e := ev.engine
	tasks := ev.tasks[:0]
	work := 0
	for _, ri := range ruleIdxs {
		cr := e.rules[ri]
		if len(cr.body) == 0 {
			continue
		}
		for d := range cr.body {
			rel := cr.body[d].rel
			lo, hi := ev.processedLen[rel], ev.roundLen[rel]
			if lo >= hi || !ev.passViable(cr, d) {
				continue
			}
			span := hi - lo
			work += span
			chunks := ev.par * 2
			if chunks > span {
				chunks = span
			}
			size := (span + chunks - 1) / chunks
			for s := lo; s < hi; s += size {
				end := s + size
				if end > hi {
					end = hi
				}
				tasks = append(tasks, evalTask{cr: cr, deltaPos: d, lo: s, hi: end})
			}
		}
	}
	ev.tasks = tasks
	if len(tasks) == 0 {
		return
	}
	if work < parMinWork {
		// Chunks of one pass are contiguous and in ascending order, so
		// running them back to back on the coordinator's own runner is the
		// sequential pass.
		for i := range tasks {
			t := &tasks[i]
			ev.timedPass(t.cr, t.deltaPos, t.lo, t.hi)
		}
		return
	}

	ev.ensureWorkers()
	var next int64
	var wg sync.WaitGroup
	for wi := range ev.workers {
		w := ev.workers[wi]
		w.heads = w.heads[:0]
		w.bodies = w.bodies[:0]
		w.resolved = w.resolved[:0]
		ev.busy[wi] = 0
		wg.Add(1)
		go func(wi int, w *parWorker) {
			defer wg.Done()
			start := time.Now()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(tasks) {
					break
				}
				t := &tasks[i]
				t.worker = wi
				t.headLo = len(w.heads)
				t.bodyLo = len(w.bodies)
				t.resLo = len(w.resolved)
				if w.jr.prof != nil {
					p0 := time.Now()
					w.jr.pass(t.cr, t.deltaPos, t.lo, t.hi)
					w.jr.prof.RoundNs[t.cr.index] += int64(time.Since(p0))
				} else {
					w.jr.pass(t.cr, t.deltaPos, t.lo, t.hi)
				}
				t.n = len(w.resolved) - t.resLo
				t.suppressed = w.jr.takeSuppressed()
			}
			ev.busy[wi] = time.Since(start)
		}(wi, w)
	}
	waitStart := time.Now()
	wg.Wait()
	mergeWait := time.Since(waitStart)

	ev.mergeTasks(tasks)

	if ev.prof != nil {
		// Fold the workers' per-rule pass times into the round now closing,
		// before the next round reuses the counter blocks.
		for _, w := range ev.workers {
			ev.prof.FlushRoundNs(w.jr.prof)
		}
	}

	ev.opts.Instr.ParallelRound(len(tasks), mergeWait, ev.busy)
}

// mergeTasks replays the buffered worker results in task order, which is
// the sequential enumeration order. A pre-resolved head (id >= 0) existed
// at round start, so HeadNew is false without touching the relation; a
// miss runs the full Insert, whose added flag distinguishes a first
// derivation from a duplicate head fired earlier in this same merge —
// exactly what sequential Insert would have reported.
func (ev *evaluator) mergeTasks(tasks []evalTask) {
	for i := range tasks {
		t := &tasks[i]
		ev.stats.Suppressed += t.suppressed
		if t.n == 0 {
			continue
		}
		cr := t.cr
		headRel := cr.head.rel
		ha := cr.head.arity
		bs := len(cr.body)
		w := ev.workers[t.worker]
		if cap(ev.mergeBody) < bs {
			ev.mergeBody = make([]FactRef, bs)
		}
		body := ev.mergeBody[:bs]
		for r := 0; r < t.n; r++ {
			id := w.resolved[t.resLo+r]
			added := false
			if id < 0 {
				ht := db.Tuple(w.heads[t.headLo+r*ha : t.headLo+(r+1)*ha])
				id, added = headRel.Insert(ht)
			}
			ev.stats.Instantiations++
			ev.stats.FiredByRule[cr.index]++
			if added {
				ev.stats.NewFacts++
			}
			ev.prof.RuleFired(cr.index, added)
			if ev.opts.Listener != nil {
				ids := w.bodies[t.bodyLo+r*bs : t.bodyLo+r*bs+bs]
				for j := range ids {
					body[j] = FactRef{Rel: cr.body[j].rel, ID: ids[j]}
				}
				ev.opts.Listener(Derivation{
					RuleIndex: cr.index,
					Rule:      &cr.src,
					Head:      FactRef{Rel: headRel, ID: id},
					HeadNew:   added,
					Body:      body,
				})
			}
		}
	}
}
