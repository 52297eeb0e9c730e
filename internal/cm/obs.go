package cm

import (
	"fmt"

	"contribmax/internal/ast"
	"contribmax/internal/obs"
	"contribmax/internal/obs/journal"
	"contribmax/internal/solvecache"
)

// observeSolve folds one finished solve into the metrics registry and
// closes the journal record with a solve.finish event. It is the common
// tail of every algorithm's public entry point.
func observeSolve(opts Options, res *Result, err error) (*Result, error) {
	if reg := opts.Obs; reg != nil {
		if err != nil {
			reg.Counter(obs.CMErrors).Inc()
		} else {
			reg.Counter(obs.CMSolves).Inc()
			reg.Histogram(obs.CMSolveNs).Observe(int64(res.Stats.TotalTime))
		}
	}
	if opts.Cache != nil && res != nil && err == nil {
		st := res.Stats
		if reg := opts.Obs; reg != nil {
			reg.Counter(obs.CacheGraphHits).Add(st.CacheGraphHits)
			reg.Counter(obs.CacheGraphMisses).Add(st.CacheGraphMisses)
			reg.Counter(obs.CacheRRHits).Add(st.CacheRRHits)
			reg.Counter(obs.CacheRRMisses).Add(st.CacheRRMisses)
		}
		opts.Journal.CacheSummary(journal.CacheInfo{
			GraphHits:   st.CacheGraphHits,
			GraphMisses: st.CacheGraphMisses,
			RRHits:      st.CacheRRHits,
			RRMisses:    st.CacheRRMisses,
			BytesReused: st.CacheBytesReused,
		})
	}
	if res != nil && err == nil &&
		(res.Stats.ExactTargets > 0 || res.Stats.DNFSamples > 0 || res.Stats.ExactFallback != "") {
		opts.Journal.EstimatorSummary(journal.EstInfo{
			Algorithm: res.Algorithm,
			Targets:   res.Stats.ExactTargets,
			Clauses:   res.Stats.LineageClauses,
			Vars:      res.Stats.LineageVars,
			LineageNs: int64(res.Stats.LineageTime),
			Samples:   res.Stats.DNFSamples,
			Fallback:  res.Stats.ExactFallback,
		})
	}
	if j := opts.Journal; j != nil {
		var fin journal.FinishInfo
		if err != nil {
			fin.Err = err.Error()
		}
		if res != nil {
			fin.Algorithm = res.Algorithm
			fin.Seeds = make([]string, len(res.Seeds))
			for i, s := range res.Seeds {
				fin.Seeds[i] = s.String()
			}
			fin.CoveredRR = res.Stats.CoveredRR
			fin.NumRR = res.Stats.NumRR
			fin.EstContribution = res.EstContribution
			fin.DurationNs = int64(res.Stats.TotalTime)
		}
		j.SolveFinish(fin)
	}
	return res, err
}

// journalSolveStart opens the journal record of one solve: algorithm,
// config fingerprint, and instance shape. No-op without a journal.
func journalSolveStart(opts Options, inst *instance, name string) {
	j := opts.Journal
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
			Database:            opts.cacheIdentity.Database,
			Program:             opts.cacheIdentity.Program,
			Target:              targetsHash(inst),
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

// targetsHash fingerprints the resolved target list, order-sensitively —
// the Target field of the solve fingerprint.
func targetsHash(inst *instance) string {
	atoms := make([]ast.Atom, len(inst.targets))
	for i, t := range inst.targets {
		atoms[i] = inst.atomOf(t)
	}
	return solvecache.HashAtoms(atoms)
}

// journalSelection replays the greedy selection into the journal as one
// select.iter event per chosen seed. The per-iteration state is
// reconstructed from the greedy result's gain sequence (cumulative
// coverage is the prefix sum — exactly how CoveredRR is defined for both
// selection variants), so the selection algorithms themselves stay
// untouched and byte-deterministic.
func journalSelection(opts Options, inst *instance, res *Result) {
	j := opts.Journal
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

// rrObs bundles the pre-resolved RR-generation metric handles so the hot
// loops pay handle lookup once, not per set. The zero value (from a nil
// registry) is a no-op; observe is safe for concurrent use by the parallel
// RR workers.
type rrObs struct {
	sets    *obs.Counter
	members *obs.Histogram
}

func newRRObs(reg *obs.Registry) rrObs {
	return rrObs{sets: reg.Counter(obs.RRSets), members: reg.Histogram(obs.RRMembers)}
}

func (r rrObs) observe(members int) {
	r.sets.Inc()
	r.members.Observe(int64(members))
}
