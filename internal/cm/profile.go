package cm

import (
	"sort"

	"contribmax/internal/im"
	"contribmax/internal/obs"
	"contribmax/internal/obs/journal"
	"contribmax/internal/prof"
)

// profileTopRules bounds the hot-rule list surfaced through the
// profile.summary journal event and the rank-keyed /metrics gauges (the
// full ranked list lives in the RuntimeProfile artifact).
const profileTopRules = 5

// profileHotNodes bounds the hottest-candidate list attached to the RR
// section of the profile.
const profileHotNodes = 10

// finishProfile finalizes the solve's profile in its close: it stamps
// the algorithm and target names, attributes the phase times and RR arena,
// ranks the hottest WD-graph candidate nodes by RR-set membership (the
// memberOf CSR degree), reconciles the planner counters, and surfaces the
// aggregate as a profile.summary journal event plus rank-keyed hot-rule
// gauges on the metrics registry. No-op without a profile; runs after
// journalSelection so the event ordering within a run is stable.
func (s *solve) finishProfile() {
	h, inst, res := s.h, s.inst, s.res
	p := h.Profile()
	if p == nil {
		return
	}
	p.SetAlgorithm(res.Algorithm)
	names := make([]string, len(inst.targets))
	for i, t := range inst.targets {
		names[i] = inst.atomOf(t).String()
	}
	p.SetTargetNames(names)
	if coll := res.rrColl; coll != nil {
		p.RecordArena(coll.ArenaBytes())
		p.RecordHotNodes(hotNodes(inst, coll))
	}
	if st := res.pl.Stats(); st.Built > 0 {
		p.RecordPlan(st.Built, st.Hits, st.Reordered)
	}
	for _, ph := range []struct {
		name string
		ns   int64
	}{
		{"build", int64(res.Stats.BuildTime)},
		{"rrgen", int64(res.Stats.RRGenTime)},
		{"select", int64(res.Stats.SelectTime)},
	} {
		if ph.ns > 0 {
			p.RecordPhase(ph.name, ph.ns)
		}
	}

	rep := p.Report()
	info := journal.ProfileInfo{
		Algorithm:   rep.Algorithm,
		EngineRuns:  rep.EngineRuns,
		Rules:       len(rep.Rules) + rep.RulesOmitted,
		Attempted:   rep.Attempted,
		Derived:     rep.Derived,
		NewFacts:    rep.NewFacts,
		EarlyVetoes: rep.EarlyVetoes,
		EvalNs:      rep.EvalNs,
	}
	if rep.RR != nil {
		info.Walks = rep.RR.Walks
		info.WalkNs = rep.RR.WalkNs
	}
	for i, r := range rep.Rules {
		if i >= profileTopRules {
			break
		}
		info.TopRules = append(info.TopRules, journal.TopRule{Rule: r.Rule, Derived: r.Derived, SelfNs: r.SelfNs})
	}
	h.Journal().ProfileSummary(info)
	if reg := h.Registry(); reg != nil {
		for i, r := range rep.Rules {
			if i >= profileTopRules {
				break
			}
			rank := i + 1
			reg.Gauge(obs.ProfileRuleSelfNs(rank)).Set(r.SelfNs)
			reg.Gauge(obs.ProfileRuleDerived(rank)).Set(r.Derived)
		}
	}
}

// hotNodes ranks the T1 candidates by how many RR sets contain them — the
// candidate nodes the greedy selection's coverage gravity concentrates on —
// and renders the top few as profile hot nodes. Deterministic: degrees are
// a pure function of the finalized collection, ties break by candidate id.
func hotNodes(inst *instance, coll *im.RRCollection) []prof.HotNode {
	type cd struct {
		ci  int
		deg int
	}
	ranked := make([]cd, 0, len(inst.candidates))
	for ci := range inst.candidates {
		if d := coll.Degree(im.CandidateID(ci)); d > 0 {
			ranked = append(ranked, cd{ci: ci, deg: d})
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].deg != ranked[j].deg {
			return ranked[i].deg > ranked[j].deg
		}
		return ranked[i].ci < ranked[j].ci
	})
	if len(ranked) > profileHotNodes {
		ranked = ranked[:profileHotNodes]
	}
	out := make([]prof.HotNode, len(ranked))
	for i, c := range ranked {
		out[i] = prof.HotNode{Node: inst.atomOf(inst.candidates[c.ci]).String(), Visits: int64(c.deg)}
	}
	return out
}
