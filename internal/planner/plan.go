// Package planner is the engine's greedy, statistics-free join planner: it
// orders the body literals of one datalog rule by bound-pattern visibility
// and schedules the rule's filters (built-ins and negated atoms) at the
// earliest join step where their variables are ground.
//
// The planner operates on rule *shapes* — argument positions resolved to
// variable slots or opaque constants, exactly the view internal/engine
// compiles rules into — and is deliberately blind to relation cardinalities:
// for pattern-based datalog the binding pattern alone picks good plans (the
// engine's semi-naive delta atom always comes first, the remaining atoms
// follow natural-join paths through already-bound variables, and filters cut
// subtrees as soon as they are evaluable). Statistics would add per-delta
// replanning cost to every fixpoint round for marginal gain.
//
// Plans never change results, only cost. Two properties guarantee it (both
// enforced by the engine's tests, see docs/PERFORMANCE.md):
//
//   - the positive-atom order is the greedy bound-first order the engine
//     computed in-engine before this package became its only source of
//     join orders (kept as a test-only reference), so the derivation replay
//     stream — and with it every golden fingerprint — is unchanged;
//   - filters are pure (built-ins) or stratification-stable (negated atoms
//     read relations frozen by earlier strata), so evaluating one at join
//     step s prunes exactly the partial bindings whose completions would
//     have failed the same filter after the join.
//
// Plans are cached in a Planner keyed by the rule's canonical shape — for
// Magic-Sets-transformed programs the adorned predicate names carry the
// binding pattern, so one cache entry covers an adorned rule family across
// the programs a solve compiles (one per target predicate for MagicCM and
// Magic^S). The engine plans once per compilation, and a compiled program
// serves every run bound to it.
package planner

import (
	"strconv"
	"strings"

	"contribmax/internal/analysis"
)

// Term is one argument position of an atom: a variable slot or a constant.
// Constants are opaque — which constant occupies a position never affects
// the plan, only that one does — so shapes that differ only in constant
// identity share a plan (and a cache entry).
type Term struct {
	IsVar bool
	Slot  int // variable slot when IsVar; slots are dense per rule
}

// Atom is one positive, joinable body literal.
type Atom struct {
	Pred  string
	Terms []Term
}

// Check is one non-binding body literal: a built-in comparison or a negated
// atom. Checks filter; they never bind variables.
type Check struct {
	Builtin bool
	Negated bool
	Pred    string
	Terms   []Term
}

// Rule is the planner's view of one compiled rule: the positive join atoms
// and the filters, with variables resolved to dense slots.
type Rule struct {
	NumVars int
	Atoms   []Atom
	Checks  []Check
}

// Plan is the evaluation order of one rule, per semi-naive delta position.
// A Plan is immutable after Build and may be shared across engines (the
// cache does exactly that); consumers must not mutate its slices.
type Plan struct {
	// Order[d] is the positive-atom order when body position d carries the
	// delta: a permutation of [0, len(Atoms)) with Order[d][0] == d,
	// greedily maximizing bound argument positions at every step.
	Order [][]int
	// ChecksAt[d][s] lists the checks (indices into Rule.Checks) to
	// evaluate immediately after step s of Order[d] binds its atom's
	// variables — the earliest step at which every variable of the check
	// is ground. Safety guarantees every non-ground check lands on some
	// step.
	ChecksAt [][][]int
	// Pre lists the ground checks (no variables at all): evaluable once
	// per pass, before any atom is scanned, vetoing the whole pass.
	Pre []int
	// Adorn[d][s] is the binding pattern of atom Order[d][s] at match
	// time: constants and variables bound by earlier steps are 'b'. The
	// engine derives its index masks from the same arithmetic; the copy
	// here feeds diagnostics and tests.
	Adorn [][]analysis.Adornment
	// Reordered counts the plan positions (across all delta positions,
	// steps >= 1) where the greedy order deviates from the written order —
	// the "atoms reordered" signal surfaced in plan.* metrics.
	Reordered int
}

// Build computes the plan of one rule. It is deterministic: equal shapes
// produce identical plans.
func Build(r *Rule) *Plan {
	n := len(r.Atoms)
	p := &Plan{
		Order:    make([][]int, n),
		ChecksAt: make([][][]int, n),
		Adorn:    make([][]analysis.Adornment, n),
	}
	// Ground checks are delta-independent: schedule them once, pass-level.
	ground := make([]bool, len(r.Checks))
	for ci := range r.Checks {
		if !hasVars(&r.Checks[ci]) {
			ground[ci] = true
			p.Pre = append(p.Pre, ci)
		}
	}

	bound := make([]bool, r.NumVars)
	used := make([]bool, n)
	scheduled := make([]bool, len(r.Checks))
	for d := 0; d < n; d++ {
		for i := range bound {
			bound[i] = false
		}
		for i := range used {
			used[i] = false
		}
		copy(scheduled, ground)

		order := make([]int, 0, n)
		checksAt := make([][]int, n)
		adorn := make([]analysis.Adornment, 0, n)

		place := func(pos int) {
			step := len(order)
			adorn = append(adorn, adornmentOf(&r.Atoms[pos], bound))
			order = append(order, pos)
			used[pos] = true
			for _, t := range r.Atoms[pos].Terms {
				if t.IsVar {
					bound[t.Slot] = true
				}
			}
			// Schedule every not-yet-scheduled check whose variables just
			// became fully bound, in check order.
			for ci := range r.Checks {
				if !scheduled[ci] && checkBound(&r.Checks[ci], bound) {
					scheduled[ci] = true
					checksAt[step] = append(checksAt[step], ci)
				}
			}
		}

		place(d)
		for len(order) < n {
			// Greedy bound-first: most bound argument positions wins, ties
			// to the earliest body position. This is byte-for-byte the
			// order the engine used before the planner existed — keeping it
			// is what preserves the derivation replay stream.
			best, bestScore := -1, -1
			for pos := 0; pos < n; pos++ {
				if used[pos] {
					continue
				}
				if s := atomScore(&r.Atoms[pos], bound); s > bestScore {
					best, bestScore = pos, s
				}
			}
			place(best)
		}
		// Safety guarantees every check variable occurs in a positive atom,
		// so all checks are scheduled by the last step. Unsafe shapes can
		// only reach the planner through code that skipped validation;
		// schedule the leftovers at the final step (or pass level for
		// body-less rules) so the plan still evaluates every check.
		for ci := range r.Checks {
			if !scheduled[ci] {
				if n == 0 {
					p.Pre = append(p.Pre, ci)
					ground[ci] = true
				} else {
					checksAt[n-1] = append(checksAt[n-1], ci)
				}
				scheduled[ci] = true
			}
		}

		for s, pos := range order {
			if pos != writtenOrderAtom(d, s) {
				p.Reordered++
			}
		}
		p.Order[d] = order
		p.ChecksAt[d] = checksAt
		p.Adorn[d] = adorn
	}
	return p
}

// writtenOrderAtom maps a step to the body position the written
// (delta-first, then source) order would evaluate — the engine's
// DisableJoinReorder sequence.
func writtenOrderAtom(deltaPos, step int) int {
	if step == 0 {
		return deltaPos
	}
	if step <= deltaPos {
		return step - 1
	}
	return step
}

// atomScore counts the atom's argument positions that are constants or
// bound variables — the bound-pattern visibility the greedy maximizes.
func atomScore(a *Atom, bound []bool) int {
	s := 0
	for _, t := range a.Terms {
		if !t.IsVar || bound[t.Slot] {
			s++
		}
	}
	return s
}

// adornmentOf renders the atom's binding pattern under the current bound
// set — the same arithmetic as analysis.AdornmentFor, over slots instead of
// names.
func adornmentOf(a *Atom, bound []bool) analysis.Adornment {
	var sb strings.Builder
	sb.Grow(len(a.Terms))
	for _, t := range a.Terms {
		if !t.IsVar || bound[t.Slot] {
			sb.WriteByte('b')
		} else {
			sb.WriteByte('f')
		}
	}
	return analysis.Adornment(sb.String())
}

func hasVars(c *Check) bool {
	for _, t := range c.Terms {
		if t.IsVar {
			return true
		}
	}
	return false
}

func checkBound(c *Check, bound []bool) bool {
	for _, t := range c.Terms {
		if t.IsVar && !bound[t.Slot] {
			return false
		}
	}
	return true
}

// Key renders the rule's canonical shape: predicate names (for adorned
// Magic-Sets predicates these carry the binding pattern, making the key
// effectively (rule, adornment)-keyed), per-term variable slots, and a
// position-blind constant marker. Two rules with equal keys provably
// receive identical plans, so Key doubles as the cache key.
func Key(r *Rule) string {
	var sb strings.Builder
	sb.Grow(64)
	sb.WriteString(strconv.Itoa(r.NumVars))
	for i := range r.Atoms {
		a := &r.Atoms[i]
		sb.WriteByte('|')
		sb.WriteString(a.Pred)
		writeTerms(&sb, a.Terms)
	}
	for i := range r.Checks {
		c := &r.Checks[i]
		if c.Negated {
			sb.WriteString("|!")
		} else {
			sb.WriteString("|?")
		}
		sb.WriteString(c.Pred)
		writeTerms(&sb, c.Terms)
	}
	return sb.String()
}

func writeTerms(sb *strings.Builder, terms []Term) {
	sb.WriteByte('(')
	for j, t := range terms {
		if j > 0 {
			sb.WriteByte(',')
		}
		if t.IsVar {
			sb.WriteString(strconv.Itoa(t.Slot))
		} else {
			sb.WriteByte('c')
		}
	}
	sb.WriteByte(')')
}
