package difftest_test

import (
	"math/rand/v2"
	"strings"
	"testing"

	"contribmax/internal/engine"
	"contribmax/internal/engine/difftest"
)

var parLevels = []int{2, 4, 8}

// TestGeneratedProgramsParallelIdentical is the property-based half of the
// harness: random stratified programs with random databases must evaluate
// byte-identically at every Parallelism level.
func TestGeneratedProgramsParallelIdentical(t *testing.T) {
	seeds := 80
	if testing.Short() {
		seeds = 15
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewPCG(uint64(seed), 0xd1f))
		spec := difftest.Generate(rng)
		// MaxRounds keeps pathological recursive closures bounded; the
		// cutoff fires at the same round for every level, so the
		// comparison stays exact.
		if err := difftest.CompareParallel(spec, engine.Options{MaxRounds: 64}, 0, parLevels); err != nil {
			t.Errorf("seed %d: %v\nprogram:\n%s", seed, err, spec.Prog)
		}
	}
}

// TestGeneratedProgramsWithBudget exercises the derivation-budget path the
// fuzz target depends on: mid-run cancellation must also be level-exact.
func TestGeneratedProgramsWithBudget(t *testing.T) {
	for seed := 0; seed < 20; seed++ {
		rng := rand.New(rand.NewPCG(uint64(seed), 0xb4d6e7))
		spec := difftest.Generate(rng)
		if err := difftest.CompareParallel(spec, engine.Options{MaxRounds: 64}, 500, parLevels); err != nil {
			t.Errorf("seed %d: %v\nprogram:\n%s", seed, err, spec.Prog)
		}
	}
}

// TestExamplesCorpusParallelIdentical runs the repository's real example
// programs (with their fact files) through the same differential check.
func TestExamplesCorpusParallelIdentical(t *testing.T) {
	entries, err := difftest.LoadCorpus("../../../examples", "../../../testdata")
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, e := range entries {
		if strings.Contains(e.Path, "analysis") {
			continue // analyzer fixtures: parseable ones may be unstratifiable etc.
		}
		if err := difftest.CompareParallel(e.Spec, engine.Options{}, 0, parLevels); err != nil {
			t.Errorf("%s: %v", e.Path, err)
		}
		ran++
	}
	if ran < 3 {
		t.Fatalf("only %d corpus programs ran; expected the quickstart/uncertain/trade programs at least", ran)
	}
}

// TestGeneratedProgramsPlanEquivalent is the planner's differential
// battery: random stratified programs (negation and built-ins included)
// must reach the same fixpoint as strict written-order evaluation.
func TestGeneratedProgramsPlanEquivalent(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewPCG(uint64(seed), 0x9a7))
		spec := difftest.Generate(rng)
		if err := difftest.CompareWrittenOrder(spec, engine.Options{MaxRounds: 64}); err != nil {
			t.Errorf("seed %d: %v\nprogram:\n%s", seed, err, spec.Prog)
		}
	}
}

// TestMagicProgramsPlanEquivalent runs the same battery over Magic-Sets
// output — the adorned, guard-heavy rule shape the CM variants actually
// evaluate and the one the plan cache is keyed for — and checks that
// parallel evaluation of it stays byte-identical to sequential.
func TestMagicProgramsPlanEquivalent(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewPCG(uint64(seed), 0x3a61c))
		spec, err := difftest.GenerateMagic(rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := difftest.CompareWrittenOrder(spec, engine.Options{MaxRounds: 64}); err != nil {
			t.Errorf("seed %d: %v\nprogram:\n%s", seed, err, spec.Prog)
		}
		if err := difftest.CompareParallel(spec, engine.Options{MaxRounds: 64}, 0, parLevels); err != nil {
			t.Errorf("seed %d: %v\nprogram:\n%s", seed, err, spec.Prog)
		}
	}
}

// TestExamplesCorpusPlanEquivalent runs the repository's example programs
// through the written-order differential check.
func TestExamplesCorpusPlanEquivalent(t *testing.T) {
	entries, err := difftest.LoadCorpus("../../../examples", "../../../testdata")
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, e := range entries {
		if strings.Contains(e.Path, "analysis") {
			continue
		}
		if err := difftest.CompareWrittenOrder(e.Spec, engine.Options{}); err != nil {
			t.Errorf("%s: %v", e.Path, err)
		}
		ran++
	}
	if ran < 3 {
		t.Fatalf("only %d corpus programs ran", ran)
	}
}

// TestGenerateDeterministic pins that the generator is a pure function of
// its rng, so failing seeds reported by CI reproduce locally.
func TestGenerateDeterministic(t *testing.T) {
	a := difftest.Generate(rand.New(rand.NewPCG(7, 7)))
	b := difftest.Generate(rand.New(rand.NewPCG(7, 7)))
	if a.Prog.String() != b.Prog.String() || len(a.Facts) != len(b.Facts) {
		t.Error("same rng state generated different specs")
	}
}

// TestGeneratorProducesInterestingPrograms guards against the generator
// silently degenerating: across a window of seeds it must produce
// recursion, negation, built-ins, and programs whose evaluation crosses
// the parallel engine's small-round threshold.
func TestGeneratorProducesInterestingPrograms(t *testing.T) {
	var recursive, negated, builtin, nontrivial int
	for seed := 0; seed < 40; seed++ {
		spec := difftest.Generate(rand.New(rand.NewPCG(uint64(seed), 0xd1f)))
		if spec.Prog.IsRecursive() {
			recursive++
		}
		if spec.Prog.HasNegation() {
			negated++
		}
		for _, r := range spec.Prog.Rules {
			for _, a := range r.Body {
				if a.Predicate == "eq" || a.Predicate == "neq" || a.Predicate == "lt" ||
					a.Predicate == "lte" || a.Predicate == "gt" || a.Predicate == "gte" {
					builtin++
				}
			}
		}
		d, err := spec.NewDB()
		if err != nil {
			t.Fatal(err)
		}
		eng, err := engine.New(spec.Prog, d)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		stats, err := eng.Run(engine.Options{MaxRounds: 64})
		if err != nil && !strings.Contains(err.Error(), "MaxRounds") {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if stats.NewFacts > 300 {
			nontrivial++
		}
	}
	if recursive == 0 || negated == 0 || builtin == 0 {
		t.Errorf("generator coverage degenerated: recursive=%d negated=%d builtin=%d", recursive, negated, builtin)
	}
	if nontrivial == 0 {
		t.Error("no generated program derived > 300 facts; parallel path may never engage")
	}
}
