package cm

import (
	"fmt"
	"sort"

	"contribmax/internal/ast"
)

// MagicGroupedCM is the Magic^G CM variant of Remark 1: instead of building
// one subgraph per sampled tuple, it applies the Magic-Sets transformation
// once for the whole set of sampled tuples, materializes the union subgraph
// once, keeps it in memory, and draws every RR set from it with independent
// reverse sampled walks.
//
// The in-construction sampling optimization cannot be combined with
// grouping (the per-RR samples must be independent, which a single shared
// construction cannot provide), so the union graph is built unsampled —
// which is why, as the paper's experiments show, Magic^G CM's memory
// footprint grows with the number of RR sets while Magic^S CM's does not.
func MagicGroupedCM(in Input, opts Options) (*Result, error) {
	return run(in, opts, "MagicGCM", cached(magicGroupedCM))
}

func magicGroupedCM(s *solve) error {
	inst := s.inst
	rng := s.opts.rng()

	// In fixed-θ mode the grouped transformation covers exactly the
	// distinct sampled root tuples (Remark 1); in adaptive mode the number
	// of roots is unknown in advance, so the transformation covers all of
	// T2 and each IMM batch draws its own roots.
	var roots []int
	distinct := map[int]bool{}
	if s.opts.Adaptive {
		for ti := range inst.targets {
			distinct[ti] = true
		}
	} else {
		theta := inst.theta(s.opts)
		roots = make([]int, theta)
		for i := range roots {
			roots[i] = rng.IntN(len(inst.targets))
			distinct[roots[i]] = true
		}
	}
	distinctSorted := make([]int, 0, len(distinct))
	for ti := range distinct {
		distinctSorted = append(distinctSorted, ti)
	}
	sort.Ints(distinctSorted)
	queryAtoms := make([]ast.Atom, 0, len(distinctSorted))
	for _, ti := range distinctSorted {
		queryAtoms = append(queryAtoms, inst.atomOf(inst.targets[ti]))
	}

	// The θ roots above are drawn from the rng BEFORE this lookup, so the
	// rng state — and every later draw — is identical whether the graph is
	// built or served from the cache.
	g, err := s.groupedGraph(queryAtoms)
	if err != nil {
		return fmt.Errorf("MagicGCM: %w", err)
	}
	if err := s.generateRR(rng, roots, newGraphWalk(g, inst).phase); err != nil {
		return fmt.Errorf("MagicGCM: %w", err)
	}
	return nil
}
