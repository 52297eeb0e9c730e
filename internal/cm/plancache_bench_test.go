package cm_test

import (
	"math/rand/v2"
	"testing"

	"contribmax/internal/ast"
	"contribmax/internal/cm"
	"contribmax/internal/im"
	"contribmax/internal/workload"
)

// BenchmarkMagicSolvePlanCache times one Magic^S solve in the perfbench
// magics-amie configuration (AMIE-8, |T2| = 30, k = 10, θ = 150,
// Parallelism 1, rng seeds 11 and 12 in turn) with the solve-wide plan
// cache against planning every compilation on its own. A solve compiles
// one program per target predicate, so the cache shares plans only across
// those programs. -count repeats each sub-benchmark back to back, so
// interleave the two by running the test binary once per pair:
//
//	go test -c -o cm.test ./internal/cm
//	for i in $(seq 10); do ./cm.test -test.run=NONE -test.bench=MagicSolvePlanCache; done
func BenchmarkMagicSolvePlanCache(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 0))
	w, err := workload.ByName("AMIE", 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	var derived []ast.Atom
	for _, pred := range w.Program.IDBs() {
		derived = append(derived, evalFacts(b, w.Program, w.DB, pred)...)
	}
	perm := rng.Perm(len(derived))
	in := cm.Input{Program: w.Program, DB: w.DB, K: 10}
	for _, i := range perm[:min(30, len(perm))] {
		in.T2 = append(in.T2, derived[i])
	}
	for _, mode := range []struct {
		name string
		on   bool
	}{{"solve-wide", true}, {"per-engine", false}} {
		b.Run(mode.name, func(b *testing.B) {
			cm.SetSolvePlanCache(mode.on)
			defer cm.SetSolvePlanCache(true)
			for i := 0; i < b.N; i++ {
				_, err := cm.MagicSampledCM(in, cm.Options{
					Theta:       im.ThetaSpec{Explicit: 150},
					Rand:        rand.New(rand.NewPCG(11+uint64(i%2), 0)),
					Parallelism: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
