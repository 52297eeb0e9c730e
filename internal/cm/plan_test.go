package cm_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"contribmax/internal/ast"
	"contribmax/internal/cm"
	"contribmax/internal/engine"
	"contribmax/internal/im"
	"contribmax/internal/magic"
	"contribmax/internal/planner"
	"contribmax/internal/workload"
)

// amiePlanInstance is a small AMIE instance whose targets span two
// predicates, dealsWith and connected. Their Magic programs share an
// adorned rule family (rule a22 puts the dealsWith^bb rules into
// connected's program), so the solve-wide plan cache hits across the two
// programs even though each is compiled once.
func amiePlanInstance(t *testing.T) cm.Input {
	t.Helper()
	w := workload.AMIE(workload.AMIEDBParams{Countries: 8}, rand.New(rand.NewPCG(8, 1)))
	deals := evalFacts(t, w.Program, w.DB, "dealsWith")
	conn := evalFacts(t, w.Program, w.DB, "connected")
	if len(deals) < 3 || len(conn) < 3 {
		t.Fatal("sparse instance; pick another generator seed")
	}
	t2 := append(append(deals[:3:3], conn[:3]...), deals[len(deals)-1])
	return cm.Input{Program: w.Program, DB: w.DB, T2: t2, K: 2}
}

// TestPlanCacheDeterministic asserts the plan cache engages on the Magic
// path — the two target predicates' programs share a rule family, so the
// second compilation hits — and that the hit/miss accounting is
// reproducible run over run and across Parallelism levels (plans are built
// under the cache lock, so the counts are a function of the workload, not
// the schedule). Plans built and positions reordered are pinned to their
// values from before the Magic programs were compiled once per target
// predicate: compiling less often must not change which plans exist.
func TestPlanCacheDeterministic(t *testing.T) {
	in := amiePlanInstance(t)
	run := func(par int) (built, hits, reordered int64) {
		t.Helper()
		res, err := cm.MagicCM(in, cm.Options{
			Theta:       im.ThetaSpec{Explicit: 120},
			Rand:        rand.New(rand.NewPCG(17, 23)),
			Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.PlansBuilt, res.Stats.PlanCacheHits, res.Stats.PlanAtomsReordered
	}
	built, hits, reordered := run(1)
	if built == 0 || hits == 0 {
		t.Fatalf("MagicCM solve built %d plans and hit the cache %d times: the cache never engaged across target predicates", built, hits)
	}
	if built != 31 || reordered != 22 {
		t.Errorf("built=%d reordered=%d, want 31/22", built, reordered)
	}
	for _, par := range []int{1, 1, 4, 8} {
		b, h, r := run(par)
		if b != built || h != hits || r != reordered {
			t.Errorf("parallelism %d: cache counts built=%d hits=%d reordered=%d, want %d/%d/%d",
				par, b, h, r, built, hits, reordered)
		}
	}
}

// shapePlanRequests is the number of plan requests of compiling one Magic
// program per distinct predicate of in.T2, in T2 order, through one plan
// cache.
func shapePlanRequests(t *testing.T, in cm.Input) int64 {
	t.Helper()
	pl := planner.New(nil)
	seen := map[string]bool{}
	for _, q := range in.T2 {
		if seen[q.Predicate] {
			continue
		}
		seen[q.Predicate] = true
		tr, err := magic.Transform(in.Program, []ast.Atom{q})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := engine.Compile(tr.Program, in.DB.Symbols(), pl); err != nil {
			t.Fatal(err)
		}
	}
	st := pl.Stats()
	return st.Built + st.Hits
}

// TestPlanRequestsIndependentOfTheta: a MagicCM or Magic^S solve compiles
// one program per target predicate, before its first RR set, so its plan
// requests (plans built plus cache hits) are those of compiling each once
// — the same at every θ, Parallelism level and under adaptive θ. A
// compilation per target, per RR set or per fallback slot would make them
// grow with the targets or with θ.
func TestPlanRequestsIndependentOfTheta(t *testing.T) {
	in := amiePlanInstance(t)
	want := shapePlanRequests(t, in)
	for _, al := range []algo{{"MagicCM", cm.MagicCM}, {"MagicSCM", cm.MagicSampledCM}} {
		t.Run(al.name, func(t *testing.T) {
			check := func(label string, opts cm.Options) {
				t.Helper()
				res, err := al.run(in, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Stats.PlansBuilt + res.Stats.PlanCacheHits; got != want {
					t.Errorf("%s: %d plan requests, want %d (one compilation per target predicate)", label, got, want)
				}
			}
			for _, theta := range []int{150, 600} {
				for _, par := range []int{0, 1, 4, 8} {
					check(fmt.Sprintf("θ=%d P=%d", theta, par), cm.Options{
						Theta:       im.ThetaSpec{Explicit: theta},
						Rand:        rand.New(rand.NewPCG(5, 8)),
						Parallelism: par,
					})
				}
			}
			check("adaptive", cm.Options{
				Adaptive: true,
				Theta:    im.ThetaSpec{Epsilon: 0.3, Delta: 0.1, MaxAuto: 2000},
				Rand:     rand.New(rand.NewPCG(5, 8)),
			})
		})
	}
	// On TC-24 every grounding trips its cap, so Magic^S evaluates all but
	// each target's first slot gated in its fallback pass.
	t.Run("CapTrips", func(t *testing.T) {
		in := tc24Instance(t)
		want := shapePlanRequests(t, in)
		for _, theta := range []int{40, 80} {
			res, err := cm.MagicSampledCM(in, cm.Options{
				Theta:       im.ThetaSpec{Explicit: theta},
				Rand:        rand.New(rand.NewPCG(5, 8)),
				Parallelism: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.GroundAborts == 0 {
				t.Fatalf("θ=%d: no grounding tripped its cap", theta)
			}
			if got := res.Stats.PlansBuilt + res.Stats.PlanCacheHits; got != want {
				t.Errorf("θ=%d: %d plan requests, want %d (one compilation per target predicate)", theta, got, want)
			}
		}
	})
}
