package cm_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"contribmax/internal/cm"
	"contribmax/internal/im"
	"contribmax/internal/workload"
)

// resultFingerprint renders everything a caller can observe about a Result
// that must be reproducible: the ordered seed set, per-seed gains, the
// contribution estimate (exact float rendering), and the RR accounting.
func resultFingerprint(r *cm.Result) string {
	return fmt.Sprintf("algo=%s seeds=%v gains=%v est=%x rr=%d covered=%d",
		r.Algorithm, seedsOf(r), r.SeedGains, r.EstContribution, r.Stats.NumRR, r.Stats.CoveredRR)
}

// TestDeterminismAcrossParallelism locks in the pre-seeded slot design:
// for a fixed master seed, every Parallelism level — 0 (one worker) and 1
// included — must produce a byte-identical Result, in fixed-θ and in
// adaptive mode, where each IMM round is one batch of slots. A regression
// here means RR slots were drawn in a scheduling-dependent order.
func TestDeterminismAcrossParallelism(t *testing.T) {
	prog := workload.TCProgram(1.0, 0.8)
	rng := rand.New(rand.NewPCG(31, 41))
	d := workload.RandomGraphM(12, 30, rng)
	derived := evalFacts(t, prog, d, "tc")
	if len(derived) < 6 {
		t.Fatal("sparse instance; pick another generator seed")
	}
	in := cm.Input{Program: prog, DB: d, T2: derived[:6], K: 3}
	// DNFCM's lineages on the TC instance exceed its budget, which would
	// hand the solve to MagicCM; it runs on a non-recursive PowerLaw
	// instance instead.
	pl := workload.PowerLaw(workload.DefaultPowerLawParams(12), rand.New(rand.NewPCG(31, 41)))
	reaches := evalFacts(t, pl.Program, pl.DB, "reaches")
	if len(reaches) < 6 {
		t.Fatal("sparse PowerLaw instance; pick another generator seed")
	}
	dnfIn := cm.Input{Program: pl.Program, DB: pl.DB, T2: reaches[:6], K: 3}
	fixed := func(par int) cm.Options {
		return cm.Options{
			Theta:       im.ThetaSpec{Explicit: 150},
			Rand:        rand.New(rand.NewPCG(7, 7)),
			Parallelism: par,
		}
	}
	adaptive := func(par int) cm.Options {
		return cm.Options{
			Adaptive:    true,
			Theta:       im.ThetaSpec{Epsilon: 0.3, MaxAuto: 1500},
			Rand:        rand.New(rand.NewPCG(7, 7)),
			Parallelism: par,
		}
	}
	// same runs al at every level and requires one fingerprint, plus a
	// re-run at the first level reproducing it.
	same := func(t *testing.T, al algo, opt func(int) cm.Options, levels []int) {
		in := in
		if al.name == "DNFCM" {
			in = dnfIn
		}
		var want string
		for _, par := range levels {
			res, err := al.run(in, opt(par))
			if err != nil {
				t.Fatalf("parallelism %d: %v", par, err)
			}
			if res.Algorithm != al.name {
				t.Fatalf("parallelism %d: answered by %s", par, res.Algorithm)
			}
			got := fmt.Sprintf("%s lb=%x", resultFingerprint(res), res.Stats.AdaptiveLowerBound)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("parallelism %d diverged:\n  got  %s\n  want %s", par, got, want)
			}
		}
		again, err := al.run(in, opt(levels[0]))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%s lb=%x", resultFingerprint(again), again.Stats.AdaptiveLowerBound); got != want {
			t.Errorf("re-run diverged:\n  got  %s\n  want %s", got, want)
		}
	}
	for _, al := range risAlgos {
		if al.name == "MagicSCM" && testing.Short() {
			continue
		}
		t.Run(al.name, func(t *testing.T) { same(t, al, fixed, []int{0, 1, 4, 8}) })
	}
	t.Run("adaptive", func(t *testing.T) {
		for _, al := range risAlgos {
			if al.name == "MagicSCM" && testing.Short() {
				continue
			}
			t.Run(al.name, func(t *testing.T) { same(t, al, adaptive, []int{0, 1, 4}) })
		}
	})
}
