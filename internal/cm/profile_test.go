package cm_test

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"contribmax/internal/cm"
	"contribmax/internal/im"
	"contribmax/internal/obs"
	"contribmax/internal/prof"
	"contribmax/internal/workload"
)

// profileInstance builds the shared workload for the profiler tests: a
// recursive TC program dense enough that every algorithm derives through
// multiple fixpoint rounds.
func profileInstance(t *testing.T) cm.Input {
	t.Helper()
	prog := workload.TCProgram(1.0, 0.8)
	rng := rand.New(rand.NewPCG(31, 41))
	d := workload.RandomGraphM(12, 30, rng)
	derived := evalFacts(t, prog, d, "tc")
	if len(derived) < 6 {
		t.Fatal("sparse instance; pick another generator seed")
	}
	return cm.Input{Program: prog, DB: d, T2: derived[:6], K: 3}
}

// TestProfiledSolveMatchesUnprofiled is the observer-effect gate for the
// profiler on profileInstance, whose fixpoints run many rounds: attaching a
// profiler must not change the Result, for every paper algorithm, and the
// solve's close must finalize the profile. TestJournalDoesNotPerturbResults
// checks the same for every sink and entry point on the smaller journal
// instance.
func TestProfiledSolveMatchesUnprofiled(t *testing.T) {
	in := profileInstance(t)
	opt := func(p *prof.Profile) cm.Options {
		return cm.Options{
			Theta:   im.ThetaSpec{Explicit: 150},
			Rand:    rand.New(rand.NewPCG(7, 7)),
			Profile: p,
		}
	}
	for _, al := range algos {
		t.Run(al.name, func(t *testing.T) {
			plain, err := al.run(in, opt(nil))
			if err != nil {
				t.Fatal(err)
			}
			p := prof.New()
			profiled, err := al.run(in, opt(p))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := resultFingerprint(profiled), resultFingerprint(plain); got != want {
				t.Errorf("profiling perturbed the solve:\n  profiled   %s\n  unprofiled %s", got, want)
			}
			checkProfile(t, profiled, p.Report(), false)
		})
	}
}

// TestProfileCountsDeterministicAcrossParallelism locks in the profiler's
// own determinism invariant: all counts are collected on deterministic
// paths and merged by commutative addition, so the count-only projection
// must be byte-identical at every Parallelism level. Wall times may (and
// will) differ; CountsJSON excludes them.
func TestProfileCountsDeterministicAcrossParallelism(t *testing.T) {
	in := profileInstance(t)
	for _, al := range algos {
		if al.name == "MagicSCM" && testing.Short() {
			continue
		}
		t.Run(al.name, func(t *testing.T) {
			var want []byte
			for _, par := range []int{0, 1, 4, 8} {
				p := prof.New()
				_, err := al.run(in, cm.Options{
					Theta:       im.ThetaSpec{Explicit: 150},
					Rand:        rand.New(rand.NewPCG(7, 7)),
					Parallelism: par,
					Profile:     p,
				})
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				got, err := p.Report().CountsJSON()
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("parallelism %d: profile counts diverged:\n  got  %s\n  want %s", par, got, want)
				}
			}
		})
	}
}

// TestProfileReconcilesWithMetrics cross-checks the profile's Derived
// total against the engine.instantiations counter from the obs registry —
// both count fired instantiations on the deterministic emit/merge path.
func TestProfileReconcilesWithMetrics(t *testing.T) {
	in := profileInstance(t)
	reg := obs.NewRegistry()
	p := prof.New()
	res, err := cm.MagicSampledCM(in, cm.Options{
		Theta:   im.ThetaSpec{Explicit: 150},
		Rand:    rand.New(rand.NewPCG(7, 7)),
		Obs:     reg,
		Profile: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	snap := reg.Snapshot()
	if got := snap.Counters["engine.instantiations"]; got != rep.Derived {
		t.Errorf("profile derived = %d, engine.instantiations = %d; they must reconcile", rep.Derived, got)
	}
	if rep.Attempted != rep.Derived+rep.Suppressed {
		t.Errorf("attempted (%d) != derived (%d) + suppressed (%d)", rep.Attempted, rep.Derived, rep.Suppressed)
	}
	if len(rep.Rules) == 0 {
		t.Fatal("no rule rows")
	}
	var ruleDerived int64
	for _, r := range rep.Rules {
		ruleDerived += r.Derived
	}
	if ruleDerived != rep.Derived {
		t.Errorf("per-rule derived sums to %d, total is %d", ruleDerived, rep.Derived)
	}
	if res.Stats.NumRR == 0 {
		t.Fatal("solve generated no RR sets")
	}
}
