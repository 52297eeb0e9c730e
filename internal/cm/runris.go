package cm

import (
	"math/rand/v2"
	"time"

	"contribmax/internal/im"
	"contribmax/internal/obs/instr"
)

// generateRR fills s.res.rrColl with the solve's RR sets. Every RR set is
// a pre-seeded slot: the master rng draws its target and the seeds of its
// own PCG stream, and phase draws the sets of one batch of slots on the
// batch's workers from those alone, so the collection is the same at every
// Parallelism level. Fixed-θ solves draw one batch of θ slots, whose
// targets roots fixes when non-nil (Magic^G CM draws them before its graph
// build). Adaptive solves (Options.Adaptive, Remark 2) run IMM, which
// derives the count online from a certified lower bound on OPT and draws
// each top-up as one batch. Batches are appended in slot order. It returns
// the first worker error or the context's error.
func (s *solve) generateRR(rng *rand.Rand, roots []int, phase func(p *slotPhase)) error {
	inst, opts, res := s.inst, s.opts, s.res
	start := time.Now()
	defer func() {
		res.Stats.RRGenTime += time.Since(start)
		res.Stats.NumRR = res.rrColl.Len()
	}()
	recs := make([]*instr.RR, max(opts.Parallelism, 1))
	for i := range recs {
		recs[i] = s.h.NewRR(i)
	}
	batch := func(coll *im.RRCollection, slots []rrSlot) error {
		p := newSlotPhase(opts.ctx(), s.h, slots, recs)
		phase(p)
		return p.finish(&res.Stats, coll)
	}
	if opts.Adaptive {
		coll, st, err := im.IMM(func(coll *im.RRCollection, n int) error {
			return batch(coll, drawSlots(rng, n, len(inst.targets), nil))
		}, im.IMMParams{
			Epsilon:       opts.Theta.Epsilon,
			Delta:         opts.Theta.Delta,
			NumTargets:    len(inst.targets),
			NumCandidates: len(inst.candidates),
			K:             inst.in.K,
			MaxRR:         opts.Theta.MaxAuto,
			Instr:         s.h,
		})
		res.rrColl = coll
		res.Stats.AdaptiveLowerBound = st.LowerBound
		res.Stats.AdaptiveCapped = st.Capped
		return err
	}
	res.rrColl = im.NewRRCollection(len(inst.candidates))
	return batch(res.rrColl, drawSlots(rng, inst.theta(opts), len(inst.targets), roots))
}
