package cm

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"contribmax/internal/im"
	"contribmax/internal/magic"
	"contribmax/internal/obs"
	"contribmax/internal/obs/journal"
	"contribmax/internal/prof"
	"contribmax/internal/wdgraph"
)

// rrSeg locates one RR set inside a worker's member arena: slot i was
// produced by worker `worker` and occupies arena[lo:hi]. The per-slot table
// lets the phases assemble the collection in slot order after the join,
// which is what keeps P=1 and P=N byte-identical.
type rrSeg struct {
	worker int32
	lo, hi int64
}

// assembleCollection builds the RR collection from the per-worker arenas in
// slot order, pre-sized so the copies are the only work.
func assembleCollection(numCandidates int, segs []rrSeg, arenas [][]im.CandidateID) *im.RRCollection {
	var total int64
	for _, s := range segs {
		total += s.hi - s.lo
	}
	coll := im.NewRRCollection(numCandidates)
	coll.Reserve(len(segs), total)
	for _, s := range segs {
		coll.Add(arenas[s.worker][s.lo:s.hi])
	}
	return coll
}

// observeArena records the post-phase memory figures: the resident size of
// the assembled RR arena and how often worker scratch (walker marks) had to
// regrow — zero in steady state.
func observeArena(reg *obs.Registry, coll *im.RRCollection, scratchGrows int64) {
	if reg == nil || coll == nil {
		return
	}
	reg.Gauge(obs.RRBytesArena).Set(coll.ArenaBytes())
	reg.Counter(obs.RRScratchGrows).Add(scratchGrows)
}

// rrSlot is one pre-drawn RR set: its target, its PCG stream seeds
// (Parallelism >= 1), and for Magic^S the gate seed of its sampled run.
type rrSlot struct {
	ti           int
	gate         uint64
	seedA, seedB uint64
}

// drawSeeded pre-draws theta slots from the master rng, each a target and
// a PCG seed pair. roots, when non-nil, fixes slot i's target to
// roots[i%len(roots)] instead of drawing it.
func drawSeeded(rng *rand.Rand, theta, nTargets int, roots []int) []rrSlot {
	slots := make([]rrSlot, theta)
	for i := range slots {
		if roots != nil {
			slots[i].ti = roots[i%len(roots)]
		} else {
			slots[i].ti = drawTarget(rng, nTargets)
		}
		slots[i].seedA, slots[i].seedB = rng.Uint64(), rng.Uint64()
	}
	return slots
}

// rrWorker is one slot-phase worker's private state: its scratch, a PCG
// re-seeded per slot, its member arena and build accounting, plus Magic^S's
// propagation scratch and pass-2 queue. A worker runs on one goroutine at a
// time; a phase hands it to fresh goroutines only after the previous run
// joined.
type rrWorker struct {
	id   int
	sc   *rrScratch
	prop magic.Propagator
	// pcg is held by value: every draw writes its state, and separately
	// allocated per-worker PCGs would sit side by side on one cache line.
	pcg      rand.PCG
	rng      *rand.Rand
	arena    []im.CandidateID
	reached  []int32
	cand     []int32
	stats    Stats
	rec      *journal.BatchRecorder
	fallback []int
	err      error
}

// seeded returns w's rng on slot s's own PCG stream.
func (w *rrWorker) seeded(s rrSlot) *rand.Rand {
	w.pcg.Seed(s.seedA, s.seedB)
	return w.rng
}

// slotPhase generates one RR phase's pre-drawn slots over
// Options.Parallelism workers (one at Parallelism 0). Each worker appends
// RR members to a private growing arena and records each slot's segment;
// the collection is assembled in slot order after the join. Every slot's
// RR set depends only on its own target and seeds, so the result does not
// depend on scheduling or worker count — Parallelism 1 and N produce
// byte-identical collections — and a steady-state slot allocates nothing
// (arena growth is amortized, walker marks are epoch-reused). Workers
// re-check ctx before every work item, and finish returns ctx's error on
// cancellation without assembling a collection.
type slotPhase struct {
	ctx     context.Context
	opts    Options
	start   time.Time
	slots   []rrSlot
	segs    []rrSeg
	ro      rrObs
	workers []*rrWorker
	// walks, when non-nil, receives per-target walk attribution.
	walks *prof.Profile
}

// newSlotPhase prepares the workers for slots; start is when the phase's
// RR generation began (before the slots were drawn).
func newSlotPhase(ctx context.Context, opts Options, slots []rrSlot, start time.Time) *slotPhase {
	p := &slotPhase{
		ctx: ctx, opts: opts, start: start, slots: slots,
		segs:    make([]rrSeg, len(slots)),
		ro:      newRRObs(opts.Obs),
		workers: make([]*rrWorker, max(opts.Parallelism, 1)),
		walks:   opts.Profile,
	}
	for i := range p.workers {
		w := &rrWorker{id: i, sc: newRRScratch(), rec: journal.NewBatchRecorder(opts.Journal, i)}
		w.rng = rand.New(&w.pcg)
		p.workers[i] = w
	}
	return p
}

// run hands work items 0..n-1 to the workers in order from a shared
// counter. A worker stops at its first error (kept in its err) and every
// worker stops once ctx is done.
func (p *slotPhase) run(n int, do func(w *rrWorker, k int) error) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, w := range p.workers {
		wg.Add(1)
		go func(w *rrWorker) {
			defer wg.Done()
			for w.err == nil {
				k := int(next.Add(1)) - 1
				if k >= n || p.ctx.Err() != nil {
					return
				}
				w.err = do(w, k)
			}
		}(w)
	}
	wg.Wait()
}

// clock returns the time for a slot's walk attribution: now when a
// profile records walks, the zero time otherwise.
func (p *slotPhase) clock() time.Time {
	if p.walks == nil {
		return time.Time{}
	}
	return time.Now()
}

// emit records that w produced slot i's RR set as w.arena[lo:], t0 (from
// clock) being when the slot started.
func (p *slotPhase) emit(w *rrWorker, i, lo int, t0 time.Time) {
	n := len(w.arena) - lo
	p.segs[i] = rrSeg{worker: int32(w.id), lo: int64(lo), hi: int64(len(w.arena))}
	p.ro.observe(n)
	w.rec.Observe(n)
	if p.walks != nil {
		// Atomic per-target adds: members are a fixed function of the
		// slots; only the times vary with scheduling.
		p.walks.RecordWalk(p.slots[i].ti, n, int64(time.Since(t0)))
	}
}

// finish joins the workers' output into res — batch events, build
// accounting and, unless a worker failed or ctx is done, the RR collection
// in slot order — and returns the first worker error or ctx's error.
func (p *slotPhase) finish(inst *instance, res *Result) error {
	arenas := make([][]im.CandidateID, len(p.workers))
	var grows int64
	var err error
	for _, w := range p.workers {
		w.rec.Flush()
		mergeStats(&res.Stats, &w.stats)
		arenas[w.id] = w.arena
		grows += w.sc.walker.Grows()
		if err == nil {
			err = w.err
		}
	}
	// Only the arenas outlive the workers. Dropping the rest now — walker
	// marks, the graph each walker points at, propagation scratch — keeps
	// it out of the heap while the collection is assembled.
	p.workers = nil
	if err != nil {
		return err
	}
	if err := p.ctx.Err(); err != nil {
		res.Stats.RRGenTime += time.Since(p.start)
		return err
	}
	coll := assembleCollection(len(inst.candidates), p.segs, arenas)
	res.rrColl = coll
	res.Stats.NumRR = len(p.slots)
	res.Stats.RRGenTime += time.Since(p.start)
	observeArena(p.opts.Obs, coll, grows)
	return nil
}

// mergeStats folds a worker's build accounting into dst.
func mergeStats(dst, src *Stats) {
	dst.GraphBuilds += src.GraphBuilds
	dst.TotalNodes += src.TotalNodes
	dst.TotalEdges += src.TotalEdges
	if src.MaxNodes > dst.MaxNodes {
		dst.MaxNodes = src.MaxNodes
	}
	if src.MaxEdges > dst.MaxEdges {
		dst.MaxEdges = src.MaxEdges
	}
	if src.PeakResidentSize > dst.PeakResidentSize {
		dst.PeakResidentSize = src.PeakResidentSize
	}
}

// parallelWalkPhase draws the RR sets of NaiveCM and Magic^G CM: θ
// independent reverse sampled walks over one immutable graph (safe for
// concurrent reads once built), each worker walking with its own Walker
// and each slot on its own pre-seeded PCG stream. roots, when non-nil,
// fixes the walk roots (Magic^G CM pre-draws them so the grouped
// transformation covers exactly the sampled tuples); nil draws them here.
func parallelWalkPhase(ctx context.Context, inst *instance, opts Options, res *Result, rng *rand.Rand,
	g *wdgraph.Graph, targetIDs []wdgraph.NodeID, targetOK []bool, candOfNode []int32, roots []int) error {

	start := time.Now()
	p := newSlotPhase(ctx, opts, drawSeeded(rng, inst.theta(opts), len(inst.targets), roots), start)
	for _, w := range p.workers {
		w.sc.walker.Reset(g)
	}
	p.run(len(p.slots), func(w *rrWorker, i int) error {
		s := p.slots[i]
		t0 := p.clock()
		lo := len(w.arena)
		if targetOK[s.ti] {
			w.sc.walker.ReverseReachable(targetIDs[s.ti], w.seeded(s), false, func(v wdgraph.NodeID) {
				if c := candOfNode[v]; c >= 0 {
					w.arena = append(w.arena, im.CandidateID(c))
				}
			})
		}
		p.emit(w, i, lo, t0)
		return nil
	})
	return p.finish(inst, res)
}
