package engine

// PipeBatchLen is the number of derivations in a full pipeline batch.
const PipeBatchLen = pipeBatchLen

// PlanOrders exposes each compiled rule's per-delta join orders so external
// tests can assert them against ReferenceOrders.
func (e *Engine) PlanOrders() [][][]int {
	out := make([][][]int, len(e.c.rules))
	for i, cr := range e.c.rules {
		out[i] = cr.plans
	}
	return out
}

// ReferenceOrders computes, for each compiled rule, the greedy bound-first
// order the engine computed in-engine before internal/planner became its
// only source of join orders. It is the test-only reference the planner
// must replicate byte-for-byte: equal orders mean equal enumeration, which
// means the derivation stream (and every golden fingerprint over it) is
// unchanged.
func (e *Engine) ReferenceOrders() [][][]int {
	out := make([][][]int, len(e.c.rules))
	for i, cr := range e.c.rules {
		out[i] = referenceOrders(cr)
	}
	return out
}

// referenceOrders orders cr's body per delta position: the delta atom
// first, then repeatedly the unused atom with the most constant or
// already-bound argument positions, the earliest written atom winning ties.
func referenceOrders(cr *compiledRule) [][]int {
	n := len(cr.body)
	plans := make([][]int, n)
	for d := 0; d < n; d++ {
		bound := make([]bool, len(cr.varNames))
		bind := func(a *compiledAtom) {
			for _, t := range a.terms {
				if t.isVar {
					bound[t.slot] = true
				}
			}
		}
		score := func(a *compiledAtom) int {
			s := 0
			for _, t := range a.terms {
				if !t.isVar || bound[t.slot] {
					s++
				}
			}
			return s
		}
		plan := make([]int, 0, n)
		used := make([]bool, n)
		plan = append(plan, d)
		used[d] = true
		bind(&cr.body[d])
		for len(plan) < n {
			best, bestScore := -1, -1
			for p := 0; p < n; p++ {
				if used[p] {
					continue
				}
				if s := score(&cr.body[p]); s > bestScore {
					best, bestScore = p, s
				}
			}
			plan = append(plan, best)
			used[best] = true
			bind(&cr.body[best])
		}
		plans[d] = plan
	}
	return plans
}
