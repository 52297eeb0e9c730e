package cm

import (
	"time"

	"contribmax/internal/obs"
	"contribmax/internal/obs/instr"
	"contribmax/internal/obs/journal"
	"contribmax/internal/planner"
	"contribmax/internal/solvecache"
)

// solve is one call of a public entry point, from its open to its close.
// Every algorithm runs between the two as a route that fills res: RR
// generation for the sampling solvers, a replay from Options.Cache, a
// fallback to MagicCM, or ExactCM's exact selection. Whatever the route,
// the solve opens and closes once: one solve.start, one solve.finish, one
// TotalTime.
type solve struct {
	opts Options
	// h is the solve's instrument; every layer below cm records through it
	// (or through h.Quiet()).
	h    *instr.Instr
	inst *instance
	res  *Result
	// top is the requested algorithm's span, sp the span of the algorithm
	// answering now: a fallback's span nests under top.
	top, sp *obs.Span
	start   time.Time
	// id is the content identity Options.Cache keys the solve by.
	// graphCacheable reports that the graph store applies (a cache is set
	// and the database and program identities resolve), rrCacheable that
	// the RR store does too (the random stream resolves as well).
	id                          solvecache.Identity
	graphCacheable, rrCacheable bool
}

// route is one algorithm's body over an open solve: it fills s.res with
// the RR collection the close selects over, or (ExactCM) with the seeds.
type route func(s *solve) error

// run is every public entry point: one open, the algorithm's route, one
// close.
func run(in Input, opts Options, name string, body route) (*Result, error) {
	s, err := open(in, opts, name)
	if err == nil {
		err = body(s)
	}
	return s.close(err)
}

// open starts a solve of algorithm name, up to its solve.start event. A
// prepare error leaves the solve open for close to report.
func open(in Input, opts Options, name string) (*solve, error) {
	s := &solve{opts: opts, h: instr.New(opts.Obs, opts.Trace, opts.Journal, opts.Profile)}
	if opts.Cache != nil {
		var randKnown bool
		s.id, randKnown = opts.CacheID.Resolve(in.DB, in.Program, opts.Rand == nil)
		s.graphCacheable = s.id.Database != "" && s.id.Program != ""
		// An unidentified random stream cannot key the RR multiset, but
		// the graph hooks (keyed on content only) still apply.
		s.rrCacheable = randKnown && s.graphCacheable
	}
	s.top = s.h.Trace().StartChild(name)
	s.sp = s.top
	prep := s.sp.StartChild("prepare")
	inst, err := prepare(in, opts)
	prep.End()
	if err != nil {
		return s, err
	}
	s.inst, s.start = inst, time.Now()
	s.res = s.newResult(name)
	s.journalSolveStart(name)
	s.h.Profile().EnsureTargets(len(inst.targets))
	return s, nil
}

// newResult returns an empty result of algorithm name with a fresh plan
// cache. One cache spans every engine compilation of the algorithm —
// full-graph builds and per-target subgraph builds alike — so hit counts
// measure real cross-engine plan reuse.
func (s *solve) newResult(name string) *Result {
	res := &Result{Algorithm: name, pl: planner.New(s.opts.Obs)}
	res.Stats.RulesTotal, res.Stats.RulesPruned = s.inst.rulesTotal, s.inst.rulesPruned
	return res
}

// fallback reroutes the open solve to MagicCM sampling, stamping reason in
// Stats.ExactFallback: ExactCM's eligibility or budget trips and DNFCM's
// lineage budget land here. MagicCM (not Magic^S) keeps the fallback on
// the same edge-percolation distribution the exact tier evaluates in
// closed form: Magic^S's in-evaluation draws condition RR membership on
// derivability, which diverges from percolation on joins over derived
// atoms. The fallback is cached under MagicCM's own name, so fallback
// solves share cache entries with direct MagicCM calls. The result starts
// afresh; the trace keeps the abandoned attempt's phases.
func (s *solve) fallback(reason string) error {
	s.h.Registry().Counter(obs.ExactFallbacks).Inc()
	s.endPhases()
	s.sp = s.sp.StartChild("MagicCM")
	s.res = s.newResult("MagicCM")
	s.res.Stats.ExactFallback = reason
	return cached(magicCM)(s)
}

// close ends the solve: on success the greedy selection (unless the route
// selected, as ExactCM does), the plan summary, the select.iter replay, the
// profile and TotalTime; in every case the phase spans, the metrics and
// the closing events. It returns the result, or nil and err.
func (s *solve) close(err error) (*Result, error) {
	res := s.res
	if err == nil {
		if res.rrColl != nil {
			s.finishSelection()
		}
		if st := res.pl.Stats(); st.Built > 0 {
			res.Stats.PlansBuilt = st.Built
			res.Stats.PlanCacheHits = st.Hits
			res.Stats.PlanAtomsReordered = st.Reordered
			s.h.Journal().PlanSummary(journal.PlanInfo{Built: st.Built, Hits: st.Hits, Reordered: st.Reordered})
		}
		journalSelection(s.h.Journal(), res)
		s.finishProfile()
		res.Stats.TotalTime = time.Since(s.start)
	}
	s.endPhases()
	s.sp.End()
	s.top.End()
	if err != nil {
		res = nil
	}
	s.observeSolve(res, err)
	return res, err
}

// endPhases hangs the phases the current result timed — build, lineage,
// rrgen, select — under the answering algorithm's span, each with its
// duration from Stats and its counts as attributes. A phase that did not
// run has no time and no span.
func (s *solve) endPhases() {
	if s.sp == nil || s.res == nil {
		return
	}
	st := &s.res.Stats
	phase := func(name string, d time.Duration) *obs.Span {
		c := &obs.Span{Name: name, Dur: d}
		s.sp.Children = append(s.sp.Children, c)
		return c
	}
	if st.BuildTime > 0 {
		sp := phase("build", st.BuildTime)
		sp.SetAttr("nodes", st.TotalNodes)
		sp.SetAttr("edges", st.TotalEdges)
	}
	if st.LineageTime > 0 {
		sp := phase("lineage", st.LineageTime)
		sp.SetAttr("targets", int64(st.ExactTargets))
		sp.SetAttr("clauses", int64(st.LineageClauses))
	}
	if st.RRGenTime > 0 {
		sp := phase("rrgen", st.RRGenTime)
		sp.SetAttr("rr", int64(st.NumRR))
		if st.BuildTime == 0 {
			// The per-target Magic variants build inside RR generation.
			sp.SetAttr("builds", int64(st.GraphBuilds))
		}
		if st.Groundings > 0 {
			sp.SetAttr("groundings", int64(st.Groundings))
			sp.SetAttr("ground_aborts", int64(st.GroundAborts))
		}
	}
	if st.SelectTime > 0 {
		sp := phase("select", st.SelectTime)
		if s.res.rrColl != nil {
			sp.SetAttr("covered", int64(st.CoveredRR))
		}
		sp.SetAttr("seeds", int64(len(s.res.Seeds)))
	}
}
