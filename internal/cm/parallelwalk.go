package cm

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"contribmax/internal/im"
	"contribmax/internal/magic"
	"contribmax/internal/obs/instr"
	"contribmax/internal/wdgraph"
)

// rrSeg locates one RR set inside a worker's member arena: slot i was
// produced by worker `worker` and occupies arena[lo:hi]. The per-slot table
// lets a batch be appended to the collection in slot order after the join,
// which is what keeps every Parallelism level byte-identical.
type rrSeg struct {
	worker int32
	lo, hi int64
}

// appendSlots appends the slots' RR sets from the per-worker arenas to coll
// in slot order, reserving first so the copies are the only work.
func appendSlots(coll *im.RRCollection, segs []rrSeg, arenas [][]im.CandidateID) {
	var total int64
	for _, s := range segs {
		total += s.hi - s.lo
	}
	coll.Reserve(len(segs), total)
	for _, s := range segs {
		coll.Add(arenas[s.worker][s.lo:s.hi])
	}
}

// rrSlot is one pre-drawn RR set: its target and the seeds of its own PCG
// stream.
type rrSlot struct {
	ti           int
	seedA, seedB uint64
}

// gate returns the gate seed of Magic^S's sampled run for s: the first
// Uint64 of the slot's stream.
func (s rrSlot) gate() uint64 {
	var pcg rand.PCG
	pcg.Seed(s.seedA, s.seedB)
	return pcg.Uint64()
}

// drawSlots pre-draws n slots from the master rng, each a target and a PCG
// seed pair. roots, when non-nil, fixes slot i's target to roots[i]
// instead of drawing it.
func drawSlots(rng *rand.Rand, n, nTargets int, roots []int) []rrSlot {
	slots := make([]rrSlot, n)
	for i := range slots {
		if roots != nil {
			slots[i].ti = roots[i]
		} else {
			slots[i].ti = rng.IntN(nTargets)
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
	drawn    []int
	seeds    []seedRoot
	cand     []int32
	stats    Stats
	rec      *instr.RR
	fallback []int
	err      error
}

// seeded returns w's rng on slot s's own PCG stream.
func (w *rrWorker) seeded(s rrSlot) *rand.Rand {
	w.pcg.Seed(s.seedA, s.seedB)
	return w.rng
}

// slotPhase generates one batch of pre-drawn slots over
// Options.Parallelism workers (one at Parallelism 0). Each worker appends
// RR members to a private growing arena and records each slot's segment;
// the batch is appended to the collection in slot order after the join.
// Every slot's RR set depends only on its own target and seeds, so the
// result does not depend on scheduling or worker count — every
// Parallelism level produces byte-identical collections — and a
// steady-state slot allocates nothing (arena growth is amortized, walker
// marks are epoch-reused). Workers re-check ctx before every work item,
// and finish returns ctx's error on cancellation without appending.
type slotPhase struct {
	ctx     context.Context
	h       *instr.Instr
	slots   []rrSlot
	segs    []rrSeg
	workers []*rrWorker
}

// newSlotPhase prepares one worker per recorder in recs for slots. The
// recorders outlive the batch, so their rr.batch running totals cover the
// whole solve.
func newSlotPhase(ctx context.Context, h *instr.Instr, slots []rrSlot, recs []*instr.RR) *slotPhase {
	p := &slotPhase{
		ctx: ctx, h: h, slots: slots,
		segs:    make([]rrSeg, len(slots)),
		workers: make([]*rrWorker, len(recs)),
	}
	for i := range p.workers {
		w := &rrWorker{id: i, sc: newRRScratch(), rec: recs[i]}
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

// emit records that w produced slot i's RR set as w.arena[lo:], t0 (from
// w.rec.Start) being when the slot started.
func (p *slotPhase) emit(w *rrWorker, i, lo int, t0 time.Time) {
	p.segs[i] = rrSeg{worker: int32(w.id), lo: int64(lo), hi: int64(len(w.arena))}
	w.rec.Set(p.slots[i].ti, len(w.arena)-lo, t0)
}

// finish joins the workers' output — batch events, build accounting into
// st and, unless a worker failed or ctx is done, the batch's RR sets
// appended to coll in slot order — and returns the first worker error or
// ctx's error.
func (p *slotPhase) finish(st *Stats, coll *im.RRCollection) error {
	arenas := make([][]im.CandidateID, len(p.workers))
	var grows int64
	var err error
	for _, w := range p.workers {
		w.rec.Flush()
		mergeStats(st, &w.stats)
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
		return err
	}
	appendSlots(coll, p.segs, arenas)
	p.h.RRArena(coll.ArenaBytes(), grows)
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

// graphWalk draws RR sets as reverse sampled walks over one immutable
// graph (safe for concurrent reads once built): NaiveCM's and Magic^G CM's
// RR sets and BruteForceOPT's pool. Node ids are resolved once per graph.
type graphWalk struct {
	g          *wdgraph.Graph
	candOfNode []int32
	targetIDs  []wdgraph.NodeID
	targetOK   []bool
}

func newGraphWalk(g *wdgraph.Graph, inst *instance) *graphWalk {
	gw := &graphWalk{
		g:          g,
		candOfNode: candidateIndex(g, inst),
		targetIDs:  make([]wdgraph.NodeID, len(inst.targets)),
		targetOK:   make([]bool, len(inst.targets)),
	}
	for i, t := range inst.targets {
		gw.targetIDs[i], gw.targetOK[i] = g.FactID(t.Pred, t.Tuple)
	}
	return gw
}

// phase walks one RR set per slot of p, each worker with its own Walker
// and each slot on its own PCG stream.
func (gw *graphWalk) phase(p *slotPhase) {
	for _, w := range p.workers {
		w.sc.walker.Reset(gw.g)
	}
	p.run(len(p.slots), func(w *rrWorker, i int) error {
		s := p.slots[i]
		t0 := w.rec.Start()
		lo := len(w.arena)
		if gw.targetOK[s.ti] {
			w.sc.walker.ReverseReachable(gw.targetIDs[s.ti], w.seeded(s), false, func(v wdgraph.NodeID) {
				if c := gw.candOfNode[v]; c >= 0 {
					w.arena = append(w.arena, im.CandidateID(c))
				}
			})
		}
		p.emit(w, i, lo, t0)
		return nil
	})
}
