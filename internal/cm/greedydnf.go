package cm

import (
	"errors"
	"math/rand/v2"
	"time"

	"contribmax/internal/im"
	"contribmax/internal/obs"
	"contribmax/internal/provenance"
)

// DNFCM is the ProbLog-style DNF/Monte-Carlo estimator: instead of sampling
// the WD graph by reverse random walks (RIS), it extracts each target's
// reachability lineage — a monotone DNF over the probabilistic rule
// instantiations — once, and then samples possible worlds over those
// variables directly. Each sample draws one target uniformly, assigns its
// lineage variables by their probabilities, and the "RR set" is the set of
// candidates with a satisfied clause.
//
// For a fixed target the membership vector is a deterministic function of
// the same rule-variable world an RIS walk samples, so the RR multiset has
// the IDENTICAL joint distribution as NaiveCM's — but through an
// independent code path (lineage extraction + clause evaluation instead of
// graph walking), which is what makes the three-way agreement battery a
// real differential test. Selection, estimates, Stats, and journal events
// all flow through the shared RIS machinery.
//
// Like ExactCM, a lineage-budget trip falls back to MagicCM sampling
// within the same solve, with Stats.ExactFallback recording the reason;
// unlike ExactCM, DNFCM does not require a hierarchical cone (recursive
// cones have finite path DNFs).
func DNFCM(in Input, opts Options) (*Result, error) {
	return run(in, opts, "DNFCM", cached(dnfCM))
}

func dnfCM(s *solve) error {
	g, err := s.fullGraph()
	if err != nil {
		return err
	}

	// Lineage extraction, once per target, flattened by candidate and
	// indexed by target position so sampled target draws map directly. A
	// nil entry (underivable target) samples the empty set.
	tls := make([]*dnfTarget, len(s.inst.targets))
	err = s.lineages(g, func(ti int, lin *provenance.ReachLineage, candOfNode []int32) {
		dt := &dnfTarget{probs: lin.Vars.Probs}
		for i, src := range lin.Sources {
			if c := candOfNode[src]; c >= 0 {
				dt.cands = append(dt.cands, im.CandidateID(c))
				dt.clauses = append(dt.clauses, lin.Clauses[i])
			}
		}
		sortByCand(dt)
		tls[ti] = dt
	})
	if errors.Is(err, provenance.ErrLineageBudget) {
		return s.fallback("lineage budget exceeded")
	}
	if err != nil {
		return err
	}

	// One possible-world sample per slot. The zero start time attributes
	// no walk: a world sample is not one.
	err = s.generateRR(s.opts.rng(), nil, func(p *slotPhase) {
		p.run(len(p.slots), func(w *rrWorker, i int) error {
			sl := p.slots[i]
			lo := len(w.arena)
			w.arena, w.sc.world = sampleDNFWorld(tls[sl.ti], w.seeded(sl), w.sc.world, w.arena)
			p.emit(w, i, lo, time.Time{})
			return nil
		})
	})
	if err != nil {
		return err
	}
	s.res.Stats.DNFSamples = s.res.Stats.NumRR
	s.h.Registry().Counter(obs.DNFSamples).Add(int64(s.res.Stats.DNFSamples))
	return nil
}

// dnfTarget is one target's lineage flattened for world sampling.
type dnfTarget struct {
	probs   []float64
	cands   []im.CandidateID // candidates with a lineage, ascending
	clauses [][][]int32      // clauses[i] is cands[i]'s path DNF
}

// sortByCand orders the flattened lineage by ascending candidate id so the
// sampled member order is deterministic. Sources are discovered in DFS
// order, which is already deterministic, but candidate order makes the
// stream independent of graph layout.
func sortByCand(dt *dnfTarget) {
	for i := 1; i < len(dt.cands); i++ {
		for j := i; j > 0 && dt.cands[j] < dt.cands[j-1]; j-- {
			dt.cands[j], dt.cands[j-1] = dt.cands[j-1], dt.cands[j]
			dt.clauses[j], dt.clauses[j-1] = dt.clauses[j-1], dt.clauses[j]
		}
	}
}

// sampleDNFWorld draws one possible world over dt's lineage variables into
// the caller's scratch buffer (grown as needed and returned) and appends
// every candidate with a satisfied clause to arena. Variables are drawn in
// dense id order, so a fixed rng stream yields a fixed world regardless of
// scheduling — the property the pre-seeded parallel slots rely on.
func sampleDNFWorld(dt *dnfTarget, r *rand.Rand, scratch []bool, arena []im.CandidateID) ([]im.CandidateID, []bool) {
	if dt == nil {
		return arena, scratch
	}
	if cap(scratch) < len(dt.probs) {
		scratch = make([]bool, len(dt.probs))
	}
	world := scratch[:len(dt.probs)]
	for v := range dt.probs {
		world[v] = r.Float64() < dt.probs[v]
	}
	for i, c := range dt.cands {
		if clausesSatisfied(dt.clauses[i], world) {
			arena = append(arena, c)
		}
	}
	return arena, scratch
}

func clausesSatisfied(clauses [][]int32, world []bool) bool {
	for _, cl := range clauses {
		sat := true
		for _, v := range cl {
			if !world[v] {
				sat = false
				break
			}
		}
		if sat {
			return true
		}
	}
	return false
}
