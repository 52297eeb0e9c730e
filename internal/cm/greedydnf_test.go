package cm_test

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"contribmax/internal/cm"
	"contribmax/internal/im"
)

func dnfOpts(seed uint64, par int) cm.Options {
	return cm.Options{
		Theta:       im.ThetaSpec{Explicit: 2000},
		Rand:        rand.New(rand.NewPCG(seed, 0xD1CE)),
		Parallelism: par,
	}
}

func TestDNFCMAgreesWithNaive(t *testing.T) {
	in := exactCase(t, `
		0.5 p1: p(X) :- e(X).
		0.6 p2: q(X) :- e(X).
		0.9 t1: t(X) :- p(X).
		0.7 t2: t(X) :- q(X).
	`, `e(n1). e(n2). e(n3).`, []string{"t(n1)", "t(n2)", "t(n3)"}, 2)
	dnf, err := cm.DNFCM(in, dnfOpts(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if dnf.Algorithm != "DNFCM" || dnf.Stats.ExactFallback != "" {
		t.Fatalf("algorithm = %s fallback %q", dnf.Algorithm, dnf.Stats.ExactFallback)
	}
	if dnf.Stats.DNFSamples != 2000 || dnf.Stats.NumRR != 2000 {
		t.Fatalf("samples = %d rr = %d, want 2000", dnf.Stats.DNFSamples, dnf.Stats.NumRR)
	}
	naive, err := cm.NaiveCM(in, dnfOpts(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	tol := 6 * float64(3) / math.Sqrt(2000)
	if diff := math.Abs(dnf.EstContribution - naive.EstContribution); diff > tol {
		t.Fatalf("DNF %.4f vs RIS %.4f: diff %.4f > tol %.4f",
			dnf.EstContribution, naive.EstContribution, diff, tol)
	}
}

// TestDNFCMRecursiveCone: recursive cones have finite simple-path DNFs, so
// DNFCM handles them without fallback and must agree with RIS.
func TestDNFCMRecursiveCone(t *testing.T) {
	in := exactCase(t, `
		0.6 r1: tc(X, Y) :- e(X, Y).
		0.5 r2: tc(X, Y) :- tc(X, Z), e(Z, Y).
	`, `e(a, b). e(b, c). e(c, d). e(a, c).`, []string{"tc(a, c)", "tc(a, d)"}, 2)
	dnf, err := cm.DNFCM(in, dnfOpts(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if dnf.Stats.ExactFallback != "" {
		t.Fatalf("unexpected fallback: %s", dnf.Stats.ExactFallback)
	}
	naive, err := cm.NaiveCM(in, dnfOpts(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	tol := 6 * float64(2) / math.Sqrt(2000)
	if diff := math.Abs(dnf.EstContribution - naive.EstContribution); diff > tol {
		t.Fatalf("DNF %.4f vs RIS %.4f: diff %.4f > tol %.4f",
			dnf.EstContribution, naive.EstContribution, diff, tol)
	}
	// Cross-check against the exact oracle on DNFCM's own seed set.
	exact, err := cm.ExactContribution(in, dnf.Seeds, cm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(dnf.EstContribution - exact); diff > tol {
		t.Fatalf("DNF %.4f vs exact %.4f: diff %.4f > tol %.4f",
			dnf.EstContribution, exact, diff, tol)
	}
}

// TestDNFCMDeterministicAcrossParallelism: with the pre-seeded slot design
// every Parallelism level, 0 (one worker) included, must produce
// byte-identical results.
func TestDNFCMDeterministicAcrossParallelism(t *testing.T) {
	in := exactCase(t, `
		0.5 p1: p(X) :- e(X).
		0.9 t1: t(X) :- p(X).
		0.7 t2: t(X) :- f(X).
	`, `e(n1). e(n2). f(n2). f(n3).`, []string{"t(n1)", "t(n2)", "t(n3)"}, 2)
	var ref *cm.Result
	for _, par := range []int{0, 1, 4, 8} {
		res, err := cm.DNFCM(in, dnfOpts(9, par))
		if err != nil {
			t.Fatal(err)
		}
		res.Stats = cm.Stats{} // timings differ; compare the payload
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res.Seeds, ref.Seeds) ||
			res.EstContribution != ref.EstContribution ||
			!reflect.DeepEqual(res.SeedGains, ref.SeedGains) {
			t.Fatalf("parallelism %d diverged: %+v vs %+v", par, res, ref)
		}
	}
}

// TestDNFCMWithinErrProxyOfExact: on a hierarchical instance the DNF
// estimate of its own seed set must fall within the reported error proxy
// of the exact value.
func TestDNFCMWithinErrProxyOfExact(t *testing.T) {
	in := exactCase(t, `
		0.5 r0: m(X) :- e(X).
		0.9 t1: t(X) :- m(X).
		0.7 a: q(X) :- m(X).
		0.6 b: t(X) :- q(X).
	`, `e(n1). e(n2).`, []string{"t(n1)", "t(n2)"}, 1)
	dnf, err := cm.DNFCM(in, dnfOpts(5, 4))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := cm.ExactContribution(in, dnf.Seeds, cm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tol := 6*float64(2)/math.Sqrt(2000) + 1e-9
	if diff := math.Abs(dnf.EstContribution - exact); diff > tol {
		t.Fatalf("DNF %.4f vs exact %.4f: diff %.4f > tol %.4f",
			dnf.EstContribution, exact, diff, tol)
	}
}
