package cm

import (
	"errors"
	"math/rand/v2"
	"time"

	"contribmax/internal/im"
	"contribmax/internal/obs"
	"contribmax/internal/provenance"
	"contribmax/internal/wdgraph"
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
// Like ExactCM, a lineage-budget trip falls back to Magic^S sampling with
// Stats.ExactFallback recording the reason; unlike ExactCM, DNFCM does not
// require a hierarchical cone (recursive cones have finite path DNFs).
func DNFCM(in Input, opts Options) (*Result, error) {
	res, err := solveVia(in, opts, "DNFCM", dnfCM)
	return observeSolve(opts, res, err)
}

func dnfCM(in Input, opts Options) (*Result, error) {
	sp := opts.Trace.StartChild("DNFCM")
	defer sp.End()
	prep := sp.StartChild("prepare")
	inst, err := prepare(in, opts)
	prep.End()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res := &Result{Algorithm: "DNFCM", pl: opts.solvePlanner()}
	res.Stats.RulesTotal, res.Stats.RulesPruned = inst.rulesTotal, inst.rulesPruned
	journalSolveStart(opts, inst, "DNFCM")

	buildSpan := sp.StartChild("build")
	buildStart := time.Now()
	g, err := cachedFullGraph(in, opts, inst, res)
	if err != nil {
		return nil, err
	}
	res.Stats.BuildTime = time.Since(buildStart)
	recordBuild(&res.Stats, g)
	res.Stats.PeakResidentSize = g.Size()
	buildSpan.SetAttr("nodes", int64(g.NumNodes()))
	buildSpan.SetAttr("edges", int64(g.NumEdges()))
	buildSpan.End()

	// Lineage extraction, once per target, indexed by target position so
	// sampled target draws map directly.
	linSpan := sp.StartChild("lineage")
	linStart := time.Now()
	tls, err := dnfLineages(g, inst, opts, &res.Stats)
	res.Stats.LineageTime = time.Since(linStart)
	linSpan.SetAttr("targets", int64(res.Stats.ExactTargets))
	linSpan.SetAttr("clauses", int64(res.Stats.LineageClauses))
	linSpan.End()
	if err != nil {
		if errors.Is(err, provenance.ErrLineageBudget) {
			return exactFallback(in, opts, "lineage budget exceeded")
		}
		return nil, err
	}

	// One possible-world sample per slot.
	rrSpan := sp.StartChild("rrgen")
	err = generateRR(inst, opts, res, opts.rng(), nil, func(p *slotPhase) {
		p.walks = nil // DNFCM attributes no walks
		p.run(len(p.slots), func(w *rrWorker, i int) error {
			s := p.slots[i]
			lo := len(w.arena)
			w.arena, w.sc.world = sampleDNFWorld(tls[s.ti], w.seeded(s), w.sc.world, w.arena)
			p.emit(w, i, lo, time.Time{})
			return nil
		})
	})
	rrSpan.SetAttr("rr", int64(res.Stats.NumRR))
	rrSpan.End()
	if err != nil {
		return nil, err
	}
	res.Stats.DNFSamples = res.Stats.NumRR
	if reg := opts.Obs; reg != nil {
		reg.Counter(obs.DNFSamples).Add(int64(res.Stats.DNFSamples))
	}

	finishSelection(inst, opts, res, sp)
	res.Stats.TotalTime = time.Since(start)
	return res, nil
}

// dnfTarget is one target's lineage flattened for world sampling. A nil
// entry (underivable target) samples the empty set.
type dnfTarget struct {
	probs   []float64
	cands   []im.CandidateID // candidates with a lineage, ascending
	clauses [][][]int32      // clauses[i] is cands[i]'s path DNF
}

// dnfLineages extracts each target's reachability lineage and flattens it
// by candidate, preserving target order (index i maps to inst.targets[i]).
// Stats reuse the exact-tier lineage fields: the extraction is the same.
func dnfLineages(g *wdgraph.Graph, inst *instance, opts Options, st *Stats) ([]*dnfTarget, error) {
	ctx := opts.ctx()
	candOfNode := candidateIndex(g, inst)
	clausesH := opts.Obs.Histogram(obs.LineageClauses)
	out := make([]*dnfTarget, len(inst.targets))
	for ti, t := range inst.targets {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		id, ok := g.FactID(t.Pred, t.Tuple)
		if !ok {
			continue
		}
		lin, err := provenance.ReachabilityLineage(g, id, provenance.DNFBudget{})
		if err != nil {
			return nil, err
		}
		dt := &dnfTarget{probs: lin.Vars.Probs}
		for i, s := range lin.Sources {
			if c := candOfNode[s]; c >= 0 {
				dt.cands = append(dt.cands, im.CandidateID(c))
				dt.clauses = append(dt.clauses, lin.Clauses[i])
			}
		}
		sortByCand(dt)
		out[ti] = dt
		st.ExactTargets++
		st.LineageClauses += lin.NumClauses
		st.LineageVars += lin.Vars.Len()
		clausesH.Observe(int64(lin.NumClauses))
	}
	return out, nil
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
