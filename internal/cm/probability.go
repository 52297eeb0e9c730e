package cm

import (
	"fmt"
	"math/rand/v2"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/magic"
	"contribmax/internal/planner"
)

// DerivationProbability estimates, by Monte-Carlo simulation of random
// program executions, the probability that target is derived — the
// probabilistic-datalog tuple semantics of Section II ("the semantics of a
// probabilistic datalog program assigns a probability to each idb fact,
// capturing its likelihood to be derived in a random program execution").
//
// Each sample runs one gated evaluation of the Magic-Sets-transformed
// program for the target (so only the relevant portion of the program is
// evaluated), drawing fire-or-not per origin-rule instantiation with
// probability w(r), and checks whether the target was derived. This is the
// conjunctive semantics: a fact needs some instantiation whose body facts
// were all derived — stricter than the reachability that the contribution
// measure (Definition 3.4) is built on.
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
	hits := 0
	// One plan cache for all samples: the transformed program is recompiled
	// per sample, and every compilation after the first reuses the cached
	// plan of each adorned rule.
	pl := planner.New(nil)
	for s := 0; s < samples; s++ {
		scratch := database.Scratch(prog.EDBs())
		eng, err := engine.NewPlanned(tr.Program, scratch, pl)
		if err != nil {
			return 0, err
		}
		gate := magic.NewHashGate(tr, eng, rng.Uint64())
		if _, err := eng.Run(engine.Options{Gate: gate}); err != nil {
			return 0, err
		}
		rel, ok := scratch.Lookup(adorned.Predicate)
		if !ok {
			continue
		}
		tuple, err := scratch.InternAtom(adorned)
		if err != nil {
			return 0, err
		}
		if _, present := rel.Contains(tuple); present {
			hits++
		}
	}
	return float64(hits) / float64(samples), nil
}
