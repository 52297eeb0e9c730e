package cm

import (
	"fmt"
	"math/rand/v2"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/magic"
)

// DerivationProbability estimates, by Monte-Carlo simulation of random
// program executions, the probability that target is derived — the
// probabilistic-datalog tuple semantics of Section II ("the semantics of a
// probabilistic datalog program assigns a probability to each idb fact,
// capturing its likelihood to be derived in a random program execution").
//
// Each sample is one random execution of the Magic-Sets-transformed
// program for the target (so only the relevant portion of the program is
// evaluated), drawing fire-or-not per origin-rule instantiation with
// probability w(r) from the gate seed rng.Uint64(), and checks whether the
// target was derived. This is the conjunctive semantics: a fact needs some
// instantiation whose body facts were all derived — stricter than the
// reachability that the contribution measure (Definition 3.4) is built on.
// The first sample runs gated; the others propagate their seeds through
// one grounding of the program when Magic^S CM's route (groundGroup)
// allows, and run gated otherwise — the same executions either way.
//
// The program must be positive (no negation); the standard error of the
// estimate is at most 1/(2·sqrt(samples)).
func DerivationProbability(prog *ast.Program, database *db.Database, target ast.Atom, samples int, rng *rand.Rand) (float64, error) {
	if samples <= 0 {
		return 0, fmt.Errorf("cm: samples must be positive")
	}
	if rng == nil {
		rng = rand.New(rand.NewPCG(0xDEF, 0xACE))
	}
	if !target.IsGround() {
		return 0, fmt.Errorf("cm: target %s is not ground", target)
	}
	tr, err := magic.Transform(prog, []ast.Atom{target})
	if err != nil {
		return 0, err
	}
	adorned := tr.Queries[0]
	tuple, err := database.InternAtom(target)
	if err != nil {
		return 0, err
	}
	seeds := make([]uint64, samples)
	for s := range seeds {
		seeds[s] = rng.Uint64()
	}
	// One compilation of the shape: every gated sample and the grounding
	// bind it.
	sh := &magicShape{tr: tr}
	if sh.compiled, err = engine.Compile(tr.Shape(), database.Symbols(), nil); err != nil {
		return 0, err
	}
	edbs := prog.EDBs()
	gated := func(seed uint64) (hit bool, attempted int64, err error) {
		scratch := database.Scratch(edbs)
		eng, err := sh.bind(scratch, target.Predicate, tuple)
		if err != nil {
			return false, 0, err
		}
		st, err := eng.Run(engine.Options{Gate: magic.NewHashGate(tr, eng, seed)})
		if err != nil {
			return false, 0, err
		}
		attempted = st.Instantiations + st.Suppressed
		if rel, ok := scratch.Lookup(adorned.Predicate); ok {
			_, hit = rel.Contains(tuple)
		}
		return hit, attempted, nil
	}
	hits := 0
	hit, a1, err := gated(seeds[0])
	if err != nil {
		return 0, err
	}
	if hit {
		hits++
	}
	g, _, _, err := groundGroup(sh, database, edbs, target.Predicate, []db.Tuple{tuple}, samples, a1, magic.GroundOptions{})
	if err != nil {
		return 0, err
	}
	if g != nil {
		f, derivable := g.Fact(adorned.Predicate, tuple)
		var p magic.Propagator
		for _, seed := range seeds[1:] {
			p.Propagate(g, seed, g.Seed(0))
			if derivable && p.Derived(f) {
				hits++
			}
		}
		return float64(hits) / float64(samples), nil
	}
	for _, seed := range seeds[1:] {
		hit, _, err := gated(seed)
		if err != nil {
			return 0, err
		}
		if hit {
			hits++
		}
	}
	return float64(hits) / float64(samples), nil
}
