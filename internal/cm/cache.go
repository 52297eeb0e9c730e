package cm

import (
	"fmt"
	"time"

	"contribmax/internal/ast"
	"contribmax/internal/engine"
	"contribmax/internal/magic"
	"contribmax/internal/solvecache"
	"contribmax/internal/wdgraph"
)

// This file holds the Options.Cache hooks of a solve. Two levels are
// memoized, matching the two expensive phases:
//
//   - Finalized RR collections (cached, in solve.go): a hit skips graph
//     construction AND RR generation entirely — prepare still runs for
//     candidate/target resolution — and the close selects over a snapshot
//     of the cached collection. Safe because RR generation is a
//     deterministic function of the key's inputs, so the replayed
//     collection is byte-identical to what the solve would have generated.
//   - Built WD graphs (fullGraph / groupedGraph): when the RR key misses
//     (different θ, targets, or random stream) but the graph key hits,
//     NaiveCM and Magic^G CM skip the fixpoint construction and walk the
//     cached immutable graph. Magic^G CM draws its θ roots from the rng
//     BEFORE the graph lookup, so the rng state — and therefore every
//     later draw — is identical whether the graph was built or reused.
//
// Results are proven byte-identical at every Parallelism level, which is
// absent from the keys, so solves differing only in it share entries.

// cached routes body through Options.Cache's RR store under the
// algorithm's name: a miss runs body under single-flight and admits the
// finalized collection, a hit replays the cached one. When body fell back
// to another algorithm, the entry keeps the answering algorithm and the
// reason, so a replay reports what the cold solve did. Without a cache, or
// when the solve's random stream is unidentified, it is body.
func cached(body route) route {
	return func(s *solve) error {
		if !s.rrCacheable {
			return body(s)
		}
		key := s.rrKey()
		entry, src, err := s.opts.Cache.RR(s.opts.ctx(), key, func() (*solvecache.RREntry, error) {
			if err := body(s); err != nil {
				return nil, err
			}
			e := rrEntryOf(s.res)
			if s.res.Algorithm != key.Algorithm {
				e.Gen.Algorithm, e.Gen.Fallback = s.res.Algorithm, s.res.Stats.ExactFallback
			}
			return e, nil
		})
		if err != nil {
			return err
		}
		if src == solvecache.Miss {
			s.res.Stats.CacheRRMisses = 1
			return nil
		}
		if !s.replay(entry) {
			// The entry does not fit the instance (an identity that lied,
			// or a key collision): solve uncached.
			return body(s)
		}
		return nil
	}
}

// replay fills the result from a cached RR collection and the original
// run's generation-cost stats, reporting false when the collection does
// not fit the prepared instance.
func (s *solve) replay(e *solvecache.RREntry) bool {
	if e.Coll.NumCandidates() != len(s.inst.candidates) {
		return false
	}
	st := &s.res.Stats
	s.res.rrColl = e.Coll.Snapshot()
	st.NumRR = s.res.rrColl.Len()
	st.GraphBuilds = e.Gen.GraphBuilds
	st.TotalNodes = e.Gen.TotalNodes
	st.TotalEdges = e.Gen.TotalEdges
	st.MaxNodes = e.Gen.MaxNodes
	st.MaxEdges = e.Gen.MaxEdges
	st.PeakResidentSize = e.Gen.PeakResidentSize
	st.Groundings = e.Gen.Groundings
	st.GroundAborts = e.Gen.GroundAborts
	st.AdaptiveLowerBound = e.Gen.AdaptiveLowerBound
	st.AdaptiveCapped = e.Gen.AdaptiveCapped
	if e.Gen.Algorithm != "" {
		s.res.Algorithm, st.ExactFallback = e.Gen.Algorithm, e.Gen.Fallback
	}
	st.CacheRRHits = 1
	st.CacheBytesReused = e.Coll.MemoryBytes()
	return true
}

// rrKey derives the key of the solve's RR collection under the answering
// algorithm's name from the prepared instance: the content identities, the
// resolved targets and candidates ("edb" for the T1 default of every edb
// fact, which the database identity covers) and the generation parameters.
func (s *solve) rrKey() solvecache.RRKey {
	inst, name := s.inst, s.res.Algorithm
	cands := "edb"
	if inst.in.T1 != nil {
		cands = hashHandles(inst, inst.candidates)
	}
	return solvecache.RRKey{
		Algorithm:  name,
		Database:   s.id.Database,
		Program:    s.id.Program,
		Rand:       s.id.Rand,
		Targets:    hashHandles(inst, inst.targets),
		Candidates: cands,
		Params:     rrParams(inst, s.opts, name),
	}
}

// rrParams renders the generation parameters the RR multiset depends on.
// In fixed-θ mode the resolved θ value is the only trace of the ThetaSpec
// (and of K, which only ThetaSpec.Auto reads), so a k-sweep at a fixed θ
// shares one collection. Adaptive generation reads K directly, so its
// params carry K.
func rrParams(inst *instance, opts Options, name string) string {
	sips := ""
	switch name {
	case "MagicCM", "MagicSCM", "MagicGCM":
		sips = fmt.Sprintf("%d", opts.SIPS)
	}
	if opts.Adaptive {
		return fmt.Sprintf("adaptive|eps=%g|delta=%g|max=%d|k=%d|sips=%s|prune=%t",
			opts.Theta.Epsilon, opts.Theta.Delta, opts.Theta.MaxAuto, inst.in.K, sips, opts.Prune)
	}
	return fmt.Sprintf("theta=%d|sips=%s|prune=%t", inst.theta(opts), sips, opts.Prune)
}

// rrEntryOf freezes a finished solve into a cache entry: a read-only
// snapshot of its finalized collection plus the generation-cost stats,
// so replays report the same cost shape the original run did.
func rrEntryOf(r *Result) *solvecache.RREntry {
	r.rrColl.Finalize()
	return &solvecache.RREntry{
		Coll: r.rrColl.Snapshot(),
		Gen: solvecache.RRStats{
			GraphBuilds:        r.Stats.GraphBuilds,
			TotalNodes:         r.Stats.TotalNodes,
			TotalEdges:         r.Stats.TotalEdges,
			MaxNodes:           r.Stats.MaxNodes,
			MaxEdges:           r.Stats.MaxEdges,
			PeakResidentSize:   r.Stats.PeakResidentSize,
			Groundings:         r.Stats.Groundings,
			GroundAborts:       r.Stats.GroundAborts,
			AdaptiveLowerBound: r.Stats.AdaptiveLowerBound,
			AdaptiveCapped:     r.Stats.AdaptiveCapped,
		},
	}
}

// effectiveProgramID identifies the program a build actually evaluates:
// the input program, or its pruned form under Options.Prune (pruning
// changes the constructed graph's size stats, so pruned and unpruned
// builds must not share a graph entry).
func effectiveProgramID(inst *instance, id solvecache.Identity) string {
	if inst.rulesPruned > 0 {
		return solvecache.HashText(inst.prog.String())
	}
	return id.Program
}

// fullGraph builds (or reuses) the full preloaded WD graph of NaiveCM,
// DNFCM and ExactCM.
func (s *solve) fullGraph() (*wdgraph.Graph, error) {
	return s.cachedGraph("full", func() (*wdgraph.Graph, error) {
		in := s.inst.in
		g, _, err := wdgraph.BuildWith(s.inst.prog, in.DB.Scratch(in.Program.EDBs()), wdgraph.BuildConfig{
			PreloadEDB:  true,
			Ctx:         s.opts.ctx(),
			Parallelism: s.opts.Parallelism,
			Planner:     s.res.pl,
			Instr:       s.h,
		})
		return g, err
	})
}

// groupedGraph builds (or reuses) Magic^G CM's union subgraph over the
// given query atoms, including the Magic-Sets transformation (a hit skips
// the transform too).
func (s *solve) groupedGraph(queryAtoms []ast.Atom) (*wdgraph.Graph, error) {
	config := fmt.Sprintf("magicg|sips=%d|roots=%s", s.opts.SIPS, solvecache.HashAtoms(queryAtoms))
	return s.cachedGraph(config, func() (*wdgraph.Graph, error) {
		in := s.inst.in
		tr, err := magic.TransformWith(s.inst.prog, queryAtoms, s.opts.SIPS)
		if err != nil {
			return nil, err
		}
		c, err := engine.Compile(tr.Program, in.DB.Symbols(), s.res.pl)
		if err != nil {
			return nil, err
		}
		g, _, err := buildMagicGraph(tr, c, in.DB.Scratch(in.Program.EDBs()), 0, false, s.opts.ctx(), s.h, s.opts.Parallelism)
		return g, err
	})
}

// cachedGraph is the solve's graph-building phase, shared by the two hooks
// above: it builds the graph, or serves it from the graph store when that
// applies, times the phase into Stats.BuildTime and records the graph's
// size. On a hit the size is recorded as if built — cold and warm runs
// report the same graph shape — and CacheGraphHits marks the reuse.
func (s *solve) cachedGraph(config string, build func() (*wdgraph.Graph, error)) (*wdgraph.Graph, error) {
	start := time.Now()
	get := build
	if s.graphCacheable {
		get = func() (*wdgraph.Graph, error) { return s.storedGraph(config, build) }
	}
	g, err := get()
	if err != nil {
		return nil, err
	}
	s.res.Stats.BuildTime = time.Since(start)
	recordBuild(&s.res.Stats, g)
	return g, nil
}

// storedGraph looks the graph up in the graph store under single-flight,
// building it on a miss.
func (s *solve) storedGraph(config string, build func() (*wdgraph.Graph, error)) (*wdgraph.Graph, error) {
	key := solvecache.GraphKey{
		Database: s.id.Database,
		Program:  effectiveProgramID(s.inst, s.id),
		Config:   config,
	}
	e, src, err := s.opts.Cache.Graph(s.opts.ctx(), key, func() (*solvecache.GraphEntry, error) {
		g, err := build()
		if err != nil {
			return nil, err
		}
		return &solvecache.GraphEntry{Graph: g}, nil
	})
	if err != nil {
		return nil, err
	}
	if src == solvecache.Miss {
		s.res.Stats.CacheGraphMisses++
	} else {
		s.res.Stats.CacheGraphHits++
		s.res.Stats.CacheBytesReused += e.Graph.MemoryBytes()
	}
	return e.Graph, nil
}
