package cm

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"contribmax/internal/analysis"
	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/im"
	"contribmax/internal/obs"
	"contribmax/internal/provenance"
	"contribmax/internal/wdgraph"
)

// ExactCM is the exact lifted evaluation tier: when every T2 predicate's
// dependency cone is hierarchical (analysis.AnalyzeHierarchy — Dalvi–Suciu
// safe, non-recursive, self-join-free), it computes the seed set by greedy
// maximization of the EXACT contribution function, evaluating
// Pr[t reachable from S] in closed form over reachability lineages instead
// of estimating it from RR samples. Result.EstContribution is then the true
// c(S ⇝ T2) and Result.ExactGains the true marginal gains; Stats.NumRR is 0
// because no sampling happened.
//
// When the cone is not hierarchical, or a lineage/evaluation budget trips
// (lineages are worst-case exponential), the solve transparently falls back
// to MagicCM sampling (see solve.fallback): the returned result carries
// that algorithm's name and Stats.ExactFallback records the reason. Greedy
// selection over the exact objective keeps the classic (1 − 1/e)
// guarantee — with no sampling error term, since coverage is computed
// exactly.
func ExactCM(in Input, opts Options) (*Result, error) {
	return run(in, opts, "ExactCM", exactCM)
}

// exactCM is the exact tier's route. It has no RR collection for
// Options.Cache to memoize, so it runs uncached; its full-graph build still
// hits the graph store.
func exactCM(s *solve) error {
	if reason := exactEligibility(s.inst); reason != "" {
		return s.fallback(reason)
	}
	g, err := s.fullGraph()
	if err != nil {
		return err
	}

	// One lineage per derivable target, its sources indexed by candidate.
	// Targets absent from the graph contribute 0 to every seed set.
	var tls []*exactTarget
	err = s.lineages(g, func(_ int, lin *provenance.ReachLineage, candOfNode []int32) {
		et := &exactTarget{l: newLifted(lin.Vars.Probs), byCand: map[im.CandidateID][][]int32{}}
		for i, src := range lin.Sources {
			if c := candOfNode[src]; c >= 0 {
				et.byCand[im.CandidateID(c)] = lin.Clauses[i]
			}
		}
		tls = append(tls, et)
	})
	if errors.Is(err, provenance.ErrLineageBudget) {
		return s.fallback("lineage budget exceeded")
	}
	if err != nil {
		return err
	}

	selStart := time.Now()
	err = exactGreedy(s.inst, s.opts, s.res, tls)
	s.res.Stats.SelectTime = time.Since(selStart)
	if errors.Is(err, errLiftedBudget) {
		return s.fallback("lifted evaluation budget exceeded")
	}
	if err != nil {
		return err
	}
	s.h.Registry().Counter(obs.ExactSolves).Inc()
	return nil
}

// exactEligibility checks every target predicate's cone against the
// hierarchy test, returning the first disqualifying reason ("" when the
// exact tier applies).
func exactEligibility(inst *instance) string {
	var roots []string
	seen := map[string]bool{}
	for _, t := range inst.targets {
		if !seen[t.Pred] {
			seen[t.Pred] = true
			roots = append(roots, t.Pred)
		}
	}
	dg := analysis.NewDepGraph(inst.prog)
	for _, h := range analysis.AnalyzeHierarchy(inst.prog, dg, roots, nil) {
		if !h.Hierarchical {
			return h.Reason
		}
	}
	return ""
}

// exactTarget is one derivable target's lineage, prepared for the greedy
// loop: per-candidate clause sets plus the running selected-set union.
type exactTarget struct {
	l      *lifted
	byCand map[im.CandidateID][][]int32
	cur    [][]int32 // union of the selected candidates' clauses, normalized
	curP   float64   // Pr[cur] — Pr[target reachable from the selection]
}

// lineages is the timed lineage phase of DNFCM and ExactCM: it hands the
// reachability lineage of every target derivable in g, in target order, to
// add with the target's index and g's candidate index, and counts it into
// the lineage stats.
func (s *solve) lineages(g *wdgraph.Graph, add func(ti int, lin *provenance.ReachLineage, candOfNode []int32)) error {
	start := time.Now()
	st, ctx := &s.res.Stats, s.opts.ctx()
	defer func() { st.LineageTime = time.Since(start) }()
	candOfNode := candidateIndex(g, s.inst)
	clausesH := s.h.Registry().Histogram(obs.LineageClauses)
	for ti, t := range s.inst.targets {
		if err := ctx.Err(); err != nil {
			return err
		}
		id, ok := g.FactID(t.Pred, t.Tuple)
		if !ok {
			continue
		}
		lin, err := provenance.ReachabilityLineage(g, id, provenance.DNFBudget{})
		if err != nil {
			return err
		}
		add(ti, lin, candOfNode)
		st.ExactTargets++
		st.LineageClauses += lin.NumClauses
		st.LineageVars += lin.Vars.Len()
		clausesH.Observe(int64(lin.NumClauses))
	}
	return nil
}

// exactGreedy runs greedy contribution maximization with exact marginal
// gains: gain(c) = Σ_t (Pr[cur_t ∪ clauses_t(c)] − Pr[cur_t]). Candidates
// are scanned in ascending id order and ties keep the first, so the
// selection is deterministic. Honors MaxSeedsPerRelation like the sampled
// selections.
func exactGreedy(inst *instance, opts Options, res *Result, tls []*exactTarget) error {
	ctx := opts.ctx()
	seenC := map[im.CandidateID]bool{}
	var cands []im.CandidateID
	for _, et := range tls {
		for c := range et.byCand {
			if !seenC[c] {
				seenC[c] = true
				cands = append(cands, c)
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })

	groups := inst.relationGroups()
	groupCount := map[int32]int{}
	selected := map[im.CandidateID]bool{}
	for iter := 0; iter < inst.in.K; iter++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		var best im.CandidateID
		bestGain, found := 0.0, false
		for _, c := range cands {
			if selected[c] {
				continue
			}
			if opts.MaxSeedsPerRelation > 0 && groupCount[groups[int(c)]] >= opts.MaxSeedsPerRelation {
				continue
			}
			gain := 0.0
			for _, et := range tls {
				cl, ok := et.byCand[c]
				if !ok {
					continue
				}
				p, err := et.l.prob(unionClauses(et.cur, cl))
				if err != nil {
					return err
				}
				gain += p - et.curP
			}
			if !found || gain > bestGain {
				found, best, bestGain = true, c, gain
			}
		}
		if !found || bestGain <= 0 {
			break
		}
		selected[best] = true
		groupCount[groups[int(best)]]++
		res.Seeds = append(res.Seeds, inst.atomOf(inst.candidates[int(best)]))
		res.ExactGains = append(res.ExactGains, bestGain)
		for _, et := range tls {
			cl, ok := et.byCand[best]
			if !ok {
				continue
			}
			et.cur = unionClauses(et.cur, cl)
			p, err := et.l.prob(et.cur)
			if err != nil {
				return err
			}
			et.curP = p
		}
	}
	total := 0.0
	for _, et := range tls {
		total += et.curP
	}
	res.EstContribution = total
	if opts.RankCandidates {
		ranking, err := exactRanking(inst, tls, cands)
		if err != nil {
			return err
		}
		res.Ranking = ranking
	}
	return nil
}

// unionClauses merges two normalized clause sets into a fresh normalized
// set — the DNF of "some selected candidate reaches the target".
func unionClauses(a, b [][]int32) [][]int32 {
	merged := make([][]int32, 0, len(a)+len(b))
	merged = append(merged, a...)
	merged = append(merged, b...)
	return provenance.NormalizeClauses(merged)
}

// exactRanking scores every candidate's individual exact contribution
// Σ_t Pr[t reachable from {c}] — the exact analogue of rankCandidates
// (Coverage stays 0: there is no RR pool).
func exactRanking(inst *instance, tls []*exactTarget, cands []im.CandidateID) ([]CandidateScore, error) {
	scoreOf := make(map[im.CandidateID]float64, len(cands))
	for _, c := range cands {
		s := 0.0
		for _, et := range tls {
			cl, ok := et.byCand[c]
			if !ok {
				continue
			}
			p, err := et.l.prob(cl)
			if err != nil {
				return nil, err
			}
			s += p
		}
		scoreOf[c] = s
	}
	out := make([]CandidateScore, len(inst.candidates))
	for ci := range inst.candidates {
		out[ci] = CandidateScore{
			Fact:            inst.atomOf(inst.candidates[ci]),
			EstContribution: scoreOf[im.CandidateID(ci)],
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].EstContribution > out[j].EstContribution })
	return out, nil
}

// ExactContribution computes the exact contribution c(S ⇝ T2) of a seed
// set — the ground-truth oracle the agreement battery holds every sampler
// against. Unlike ExactCM it does not require a hierarchical cone: the
// lifted engine's Shannon fallback is exact on any lineage (including
// recursive cones, whose reachability DNFs simple-path enumeration still
// captures), just not polynomial; budget errors mean "too hard", not
// "wrong". Input.K is ignored.
func ExactContribution(in Input, seeds []ast.Atom, opts Options) (float64, error) {
	inst, err := prepare(in, opts)
	if err != nil {
		return 0, err
	}
	g, _, err := wdgraph.Build(inst.prog, in.DB.Scratch(in.Program.EDBs()), wdgraph.BuildConfig{})
	if err != nil {
		return 0, err
	}
	isSeed := make([]bool, g.NumNodes())
	any := false
	for _, s := range seeds {
		id, ok, err := graphFactNode(in.DB, g, s)
		if err != nil {
			return 0, err
		}
		if ok {
			isSeed[id] = true
			any = true
		}
	}
	if !any {
		return 0, nil
	}
	total := 0.0
	for _, t := range inst.targets {
		id, ok := g.FactID(t.Pred, t.Tuple)
		if !ok {
			continue
		}
		lin, err := provenance.ReachabilityLineage(g, id, provenance.DNFBudget{})
		if err != nil {
			return 0, err
		}
		var merged [][]int32
		for i, src := range lin.Sources {
			if isSeed[src] {
				merged = append(merged, lin.Clauses[i]...)
			}
		}
		if len(merged) == 0 {
			continue
		}
		l := newLifted(lin.Vars.Probs)
		p, err := l.prob(provenance.NormalizeClauses(merged))
		if err != nil {
			return 0, err
		}
		total += p
	}
	return total, nil
}

// ExactQueryProbability computes the exact conjunctive-semantics query
// probability of one ground fact via its derivation DNF — the quantity
// DerivationProbability estimates by Monte Carlo. The fact's cone must be
// non-recursive. A target that was never derived returns 0.
func ExactQueryProbability(prog *ast.Program, database *db.Database, target ast.Atom) (float64, error) {
	in := Input{Program: prog, DB: database}
	g, _, err := wdgraph.Build(prog, in.DB.Scratch(in.Program.EDBs()), wdgraph.BuildConfig{})
	if err != nil {
		return 0, err
	}
	id, ok, err := graphFactNode(database, g, target)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil
	}
	vt, clauses, err := provenance.DerivationLineage(g, id, provenance.DNFBudget{})
	if err != nil {
		return 0, err
	}
	return newLifted(vt.Probs).prob(clauses)
}

// graphFactNode resolves a ground atom to its node in g, reporting absence
// (not an error) when the fact is not part of the graph.
func graphFactNode(database *db.Database, g *wdgraph.Graph, a ast.Atom) (wdgraph.NodeID, bool, error) {
	if !a.IsGround() {
		return 0, false, fmt.Errorf("cm: exact seed %s is not ground", a)
	}
	t, err := database.InternAtom(a)
	if err != nil {
		return 0, false, err
	}
	id, ok := g.FactID(a.Predicate, t)
	return id, ok, nil
}
