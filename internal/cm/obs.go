package cm

import (
	"fmt"

	"contribmax/internal/ast"
	"contribmax/internal/obs"
	"contribmax/internal/obs/journal"
	"contribmax/internal/solvecache"
)

// observeSolve folds the finished solve — res, or nil and err — into the
// metrics registry, summarizes its cache use (when the solve had a cache)
// and its estimator, and closes the journal record with a solve.finish
// event. The solve's close is its one caller.
func (s *solve) observeSolve(res *Result, err error) {
	reg, j := s.h.Registry(), s.h.Journal()
	if reg != nil {
		if err != nil {
			reg.Counter(obs.CMErrors).Inc()
		} else {
			reg.Counter(obs.CMSolves).Inc()
			reg.Histogram(obs.CMSolveNs).Observe(int64(res.Stats.TotalTime))
		}
	}
	if s.opts.Cache != nil && res != nil {
		st := res.Stats
		if reg != nil {
			reg.Counter(obs.CacheGraphHits).Add(st.CacheGraphHits)
			reg.Counter(obs.CacheGraphMisses).Add(st.CacheGraphMisses)
			reg.Counter(obs.CacheRRHits).Add(st.CacheRRHits)
			reg.Counter(obs.CacheRRMisses).Add(st.CacheRRMisses)
		}
		j.CacheSummary(journal.CacheInfo{
			GraphHits:   st.CacheGraphHits,
			GraphMisses: st.CacheGraphMisses,
			RRHits:      st.CacheRRHits,
			RRMisses:    st.CacheRRMisses,
			BytesReused: st.CacheBytesReused,
		})
	}
	if res != nil && (res.Stats.ExactTargets > 0 || res.Stats.DNFSamples > 0 || res.Stats.ExactFallback != "") {
		j.EstimatorSummary(journal.EstInfo{
			Algorithm: res.Algorithm,
			Targets:   res.Stats.ExactTargets,
			Clauses:   res.Stats.LineageClauses,
			Vars:      res.Stats.LineageVars,
			LineageNs: int64(res.Stats.LineageTime),
			Samples:   res.Stats.DNFSamples,
			Fallback:  res.Stats.ExactFallback,
		})
	}
	if j != nil {
		var fin journal.FinishInfo
		if err != nil {
			fin.Err = err.Error()
		}
		if res != nil {
			fin.Algorithm = res.Algorithm
			fin.Seeds = make([]string, len(res.Seeds))
			for i, seed := range res.Seeds {
				fin.Seeds[i] = seed.String()
			}
			fin.CoveredRR = res.Stats.CoveredRR
			fin.NumRR = res.Stats.NumRR
			fin.EstContribution = res.EstContribution
			fin.DurationNs = int64(res.Stats.TotalTime)
		}
		j.SolveFinish(fin)
	}
}

// journalSolveStart opens the journal record of the solve: algorithm,
// config fingerprint, and instance shape. No-op without a journal. The
// solve's open is its one caller.
func (s *solve) journalSolveStart(name string) {
	j, opts, inst := s.h.Journal(), s.opts, s.inst
	if j == nil {
		return
	}
	theta := 0
	if !opts.Adaptive {
		theta = inst.theta(opts)
	}
	j.SolveStart(journal.SolveInfo{
		Algorithm: name,
		Fingerprint: journal.FingerprintInput{
			Algorithm:           name,
			Database:            s.id.Database,
			Program:             s.id.Program,
			Target:              hashHandles(inst, inst.targets),
			K:                   inst.in.K,
			Candidates:          len(inst.candidates),
			Targets:             len(inst.targets),
			ThetaExplicit:       opts.Theta.Explicit,
			ThetaFraction:       opts.Theta.Fraction,
			ThetaEpsilon:        opts.Theta.Epsilon,
			ThetaDelta:          opts.Theta.Delta,
			ThetaMaxAuto:        opts.Theta.MaxAuto,
			Adaptive:            opts.Adaptive,
			Parallelism:         opts.Parallelism,
			MaxSeedsPerRelation: opts.MaxSeedsPerRelation,
			SIPS:                fmt.Sprintf("%d", opts.SIPS),
			Prune:               opts.Prune,
		}.Hash(),
		K:           inst.in.K,
		Candidates:  len(inst.candidates),
		Targets:     len(inst.targets),
		Theta:       theta,
		Adaptive:    opts.Adaptive,
		Parallelism: opts.Parallelism,
	})
}

// hashHandles fingerprints a resolved fact list, order-sensitively: the
// resolved targets are the Target field of the solve fingerprint, and they
// and the resolved candidates key the RR store.
func hashHandles(inst *instance, hs []FactHandle) string {
	atoms := make([]ast.Atom, len(hs))
	for i, h := range hs {
		atoms[i] = inst.atomOf(h)
	}
	return solvecache.HashAtoms(atoms)
}

// journalSelection replays the greedy selection into the journal as one
// select.iter event per chosen seed. The per-iteration state is
// reconstructed from the greedy result's gain sequence (cumulative
// coverage is the prefix sum — exactly how CoveredRR is defined for both
// selection variants), so the selection algorithms themselves stay
// untouched and byte-deterministic.
func journalSelection(j *journal.Journal, res *Result) {
	if j == nil {
		return
	}
	theta := 0
	if res.rrColl != nil {
		theta = res.rrColl.Len()
	}
	covered := 0
	for i, seed := range res.Seeds {
		gain := 0
		if i < len(res.SeedGains) {
			gain = res.SeedGains[i]
		}
		covered += gain
		coverage := 0.0
		if theta > 0 {
			coverage = float64(covered) / float64(theta)
		}
		j.SelectIter(journal.IterInfo{
			I:        i,
			Seed:     seed.String(),
			Gain:     gain,
			Covered:  covered,
			Coverage: coverage,
			ErrProxy: journal.ErrProxy(covered, theta),
		})
	}
}
