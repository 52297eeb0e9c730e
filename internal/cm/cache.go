package cm

import (
	"errors"
	"fmt"
	"time"

	"contribmax/internal/ast"
	"contribmax/internal/magic"
	"contribmax/internal/solvecache"
	"contribmax/internal/wdgraph"
)

// This file routes every solver entry point through Options.Cache. Two
// levels are memoized, matching the two expensive phases:
//
//   - Finalized RR collections (solveVia): a hit skips preparation of
//     nothing — prepare still runs for candidate/target resolution — but
//     skips graph construction AND RR generation entirely, replaying the
//     selection phase over a snapshot of the cached collection. Safe
//     because RR generation is a deterministic function of the key's
//     inputs, so the replayed collection is byte-identical to what the
//     solve would have generated.
//   - Built WD graphs (cachedFullGraph / cachedGroupedGraph): when the RR
//     key misses (different θ, targets, or random stream) but the graph
//     key hits, NaiveCM and Magic^G CM skip the fixpoint construction and
//     walk the cached immutable graph. Magic^G CM draws its θ roots from
//     the rng BEFORE the graph lookup, so the rng state — and therefore
//     every later draw — is identical whether the graph was built or
//     reused.
//
// Results are proven byte-identical at every Parallelism level, which is
// absent from the keys, so solves differing only in it share entries.

type solveFn func(Input, Options) (*Result, error)

// errCacheMismatch reports a cached collection that does not fit the
// prepared instance (an identity that lied, or a key collision). solveVia
// falls back to an uncached solve.
var errCacheMismatch = errors.New("cm: cached RR collection does not match instance")

// solveVia is the cache-aware wrapper every public entry point goes
// through. Without a cache it is fn. With one, it resolves the solve's
// content identity, consults the RR store under single-flight, and either
// runs fn (miss; the finalized collection is admitted on success) or
// replays selection from the cached collection (hit).
func solveVia(in Input, opts Options, name string, fn solveFn) (*Result, error) {
	c := opts.Cache
	if c == nil {
		return fn(in, opts)
	}
	id, randKnown := opts.CacheID.Resolve(in.DB, in.Program, opts.Rand == nil)
	opts.cacheIdentity = id
	opts.cacheIDValid = id.Database != "" && id.Program != ""
	if !randKnown || !opts.cacheIDValid {
		// Unidentified random stream: the RR multiset cannot be keyed, but
		// the graph hooks (keyed on content only) still apply via the
		// resolved identity stashed in opts.
		return fn(in, opts)
	}
	key, ok := rrKeyFor(in, opts, name, id)
	if !ok {
		return fn(in, opts)
	}
	var leader *Result
	entry, src, err := c.RR(opts.ctx(), key, func() (*solvecache.RREntry, error) {
		r, err := fn(in, opts)
		if err != nil {
			return nil, err
		}
		leader = r
		return rrEntryOf(r), nil
	})
	if err != nil {
		return nil, err
	}
	if src == solvecache.Miss {
		leader.Stats.CacheRRMisses = 1
		return leader, nil
	}
	res, err := replayFromEntry(in, opts, name, entry)
	if errors.Is(err, errCacheMismatch) {
		return fn(in, opts)
	}
	return res, err
}

// rrKeyFor derives the RR-collection key for a solve, or reports the
// inputs too malformed to key (fn will produce the real error).
func rrKeyFor(in Input, opts Options, name string, id solvecache.Identity) (solvecache.RRKey, bool) {
	nc, nt, targets, cands, ok := shapeOf(in)
	if !ok {
		return solvecache.RRKey{}, false
	}
	return solvecache.RRKey{
		Algorithm:  name,
		Database:   id.Database,
		Program:    id.Program,
		Rand:       id.Rand,
		Targets:    targets,
		Candidates: cands,
		Params:     rrParams(in, opts, name, nc, nt),
	}, true
}

// shapeOf computes the instance shape prepare would resolve — distinct
// candidate and target counts plus order-sensitive content hashes —
// without running analysis or touching the symbol table. Ground atoms are
// equal iff their renderings are, so dedup by String matches prepare's
// dedup by interned handle.
func shapeOf(in Input) (nc, nt int, targets, cands string, ok bool) {
	if in.Program == nil || in.DB == nil {
		return 0, 0, "", "", false
	}
	seenT := map[string]bool{}
	t2 := make([]ast.Atom, 0, len(in.T2))
	for _, a := range in.T2 {
		s := a.String()
		if seenT[s] {
			continue
		}
		seenT[s] = true
		t2 = append(t2, a)
	}
	nt = len(t2)
	targets = solvecache.HashAtoms(t2)
	if in.T1 == nil {
		// prepare enumerates every edb fact; tuples are unique within a
		// relation and relations are disjoint, so the count is the sum.
		edb := map[string]bool{}
		for _, p := range in.Program.EDBs() {
			edb[p] = true
		}
		for _, rn := range in.DB.RelationNames() {
			if !edb[rn] {
				continue
			}
			if rel, found := in.DB.Lookup(rn); found {
				nc += rel.Len()
			}
		}
		cands = "edb"
	} else {
		seenC := map[string]bool{}
		t1 := make([]ast.Atom, 0, len(in.T1))
		for _, a := range in.T1 {
			s := a.String()
			if seenC[s] {
				continue
			}
			seenC[s] = true
			t1 = append(t1, a)
		}
		nc = len(t1)
		cands = solvecache.HashAtoms(t1)
	}
	return nc, nt, targets, cands, true
}

// rrParams renders the generation parameters the RR multiset depends on.
// In fixed-θ mode the resolved θ value is the only trace of the ThetaSpec
// (and of K, which only ThetaSpec.Auto reads), so a k-sweep at a fixed θ
// shares one collection. Adaptive generation reads K directly, so its
// params carry K.
func rrParams(in Input, opts Options, name string, nc, nt int) string {
	sips := ""
	switch name {
	case "MagicCM", "MagicSCM", "MagicGCM":
		sips = fmt.Sprintf("%d", opts.SIPS)
	}
	if opts.Adaptive {
		return fmt.Sprintf("adaptive|eps=%g|delta=%g|max=%d|k=%d|sips=%s|prune=%t",
			opts.Theta.Epsilon, opts.Theta.Delta, opts.Theta.MaxAuto, in.K, sips, opts.Prune)
	}
	theta := opts.Theta.Theta(nc, nt, in.K)
	return fmt.Sprintf("theta=%d|sips=%s|prune=%t", theta, sips, opts.Prune)
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

// replayFromEntry serves a solve from a cached RR collection: prepare
// resolves the instance (and validates the inputs exactly as a cold solve
// would), then the selection phase runs over a snapshot of the collection.
// Seeds, gains, and estimates are byte-identical to a cold solve because
// the collection is.
func replayFromEntry(in Input, opts Options, name string, e *solvecache.RREntry) (*Result, error) {
	sp := opts.Trace.StartChild(name)
	defer sp.End()
	prep := sp.StartChild("prepare")
	inst, err := prepare(in, opts)
	prep.End()
	if err != nil {
		return nil, err
	}
	if e.Coll.NumCandidates() != len(inst.candidates) {
		return nil, errCacheMismatch
	}
	start := time.Now()
	res := &Result{Algorithm: name, pl: opts.solvePlanner()}
	res.Stats.RulesTotal, res.Stats.RulesPruned = inst.rulesTotal, inst.rulesPruned
	journalSolveStart(opts, inst, name)

	res.rrColl = e.Coll.Snapshot()
	res.Stats.NumRR = res.rrColl.Len()
	res.Stats.GraphBuilds = e.Gen.GraphBuilds
	res.Stats.TotalNodes = e.Gen.TotalNodes
	res.Stats.TotalEdges = e.Gen.TotalEdges
	res.Stats.MaxNodes = e.Gen.MaxNodes
	res.Stats.MaxEdges = e.Gen.MaxEdges
	res.Stats.PeakResidentSize = e.Gen.PeakResidentSize
	res.Stats.Groundings = e.Gen.Groundings
	res.Stats.GroundAborts = e.Gen.GroundAborts
	res.Stats.AdaptiveLowerBound = e.Gen.AdaptiveLowerBound
	res.Stats.AdaptiveCapped = e.Gen.AdaptiveCapped
	res.Stats.CacheRRHits = 1
	res.Stats.CacheBytesReused = e.Coll.MemoryBytes()

	finishSelection(inst, opts, res, sp)
	res.Stats.TotalTime = time.Since(start)
	return res, nil
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

// cachedFullGraph builds (or reuses) the full preloaded WD graph of
// NaiveCM. On a hit the build stats are recorded as if built — cold and
// warm runs report the same graph shape — and CacheGraphHits marks the
// reuse.
func cachedFullGraph(in Input, opts Options, inst *instance, res *Result) (*wdgraph.Graph, error) {
	build := func() (*wdgraph.Graph, error) {
		g, _, err := wdgraph.BuildWith(inst.prog, in.DB.Scratch(in.Program.EDBs()), wdgraph.BuildConfig{
			PreloadEDB:  true,
			Ctx:         opts.ctx(),
			Obs:         opts.Obs,
			Parallelism: opts.Parallelism,
			Journal:     opts.Journal,
			Planner:     res.pl,
			Prof:        opts.Profile,
		})
		return g, err
	}
	return cachedGraph(opts, res, "full", inst, build)
}

// cachedGroupedGraph builds (or reuses) Magic^G CM's union subgraph over
// the given query atoms, including the Magic-Sets transformation (a hit
// skips the transform too).
func cachedGroupedGraph(in Input, opts Options, inst *instance, res *Result, queryAtoms []ast.Atom) (*wdgraph.Graph, error) {
	build := func() (*wdgraph.Graph, error) {
		tr, err := magic.TransformWith(inst.prog, queryAtoms, opts.SIPS)
		if err != nil {
			return nil, err
		}
		g, _, err := buildMagicGraph(in, tr, 0, false, opts.ctx(), opts.Obs, opts.Journal, opts.Parallelism, res.pl, opts.Profile)
		return g, err
	}
	config := fmt.Sprintf("magicg|sips=%d|roots=%s", opts.SIPS, solvecache.HashAtoms(queryAtoms))
	return cachedGraph(opts, res, config, inst, build)
}

// cachedGraph is the shared graph-store lookup for the two hooks above.
func cachedGraph(opts Options, res *Result, config string, inst *instance, build func() (*wdgraph.Graph, error)) (*wdgraph.Graph, error) {
	if opts.Cache == nil || !opts.cacheIDValid {
		return build()
	}
	key := solvecache.GraphKey{
		Database: opts.cacheIdentity.Database,
		Program:  effectiveProgramID(inst, opts.cacheIdentity),
		Config:   config,
	}
	e, src, err := opts.Cache.Graph(opts.ctx(), key, func() (*solvecache.GraphEntry, error) {
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
		res.Stats.CacheGraphMisses++
	} else {
		res.Stats.CacheGraphHits++
		res.Stats.CacheBytesReused += e.Graph.MemoryBytes()
	}
	return e.Graph, nil
}
