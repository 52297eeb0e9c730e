package engine_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"contribmax/internal/engine"
	"contribmax/internal/engine/difftest"
)

// orderMismatch compares every rule's planner-sourced join orders with the
// test-only reference order and describes the first divergence ("" when
// all rules agree).
func orderMismatch(spec *difftest.Spec, eng *engine.Engine) string {
	ref, got := eng.ReferenceOrders(), eng.PlanOrders()
	for ri := range ref {
		if !reflect.DeepEqual(ref[ri], got[ri]) {
			return fmt.Sprintf("rule %d: planner order %v != reference order %v\nrule: %s",
				ri, got[ri], ref[ri], spec.Prog.Rules[ri])
		}
	}
	return ""
}

// TestPlannedOrderMatchesLegacy asserts, over random generated programs and
// their Magic-Sets transforms, that the engine compiles every rule to
// exactly the reference greedy bound-first orders (ReferenceOrders, the
// engine's pre-planner ordering kept as a test oracle). This is the
// load-bearing invariant behind the unchanged goldens: equal orders mean
// equal enumeration, which means an identical derivation stream. The
// written-order differential tests in difftest verify the consequence; this
// test pins the cause, so a divergence fails here with the offending
// rule's orders instead of a downstream stream diff.
func TestPlannedOrderMatchesLegacy(t *testing.T) {
	check := func(t *testing.T, spec *difftest.Spec, seed int) {
		d, err := spec.NewDB()
		if err != nil {
			t.Fatal(err)
		}
		eng, err := engine.New(spec.Prog, d)
		if err != nil {
			t.Fatalf("seed %d: New: %v", seed, err)
		}
		if msg := orderMismatch(spec, eng); msg != "" {
			t.Errorf("seed %d: %s", seed, msg)
		}
	}
	for seed := 0; seed < 40; seed++ {
		rng := rand.New(rand.NewPCG(uint64(seed), 0x91a))
		check(t, difftest.Generate(rng), seed)
	}
	for seed := 0; seed < 15; seed++ {
		rng := rand.New(rand.NewPCG(uint64(seed), 0x51a6))
		spec, err := difftest.GenerateMagic(rng)
		if err != nil {
			t.Fatal(err)
		}
		check(t, spec, seed)
	}
}
