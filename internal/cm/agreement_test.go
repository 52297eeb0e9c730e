package cm_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"contribmax/internal/ast"
	"contribmax/internal/cm"
	"contribmax/internal/db"
	"contribmax/internal/im"
	"contribmax/internal/parser"
)

// agreeCase is one named golden instance from testdata/agree/<name>/:
// program.dl, facts.txt, and targets.txt (one ground atom per line).
type agreeCase struct {
	name    string
	prog    *ast.Program
	db      *db.Database
	targets []ast.Atom
}

func loadAgreeCorpus(t *testing.T) []agreeCase {
	t.Helper()
	root := filepath.Join("testdata", "agree")
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var cases []agreeCase
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		progSrc, err := os.ReadFile(filepath.Join(dir, "program.dl"))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := parser.ParseProgram(string(progSrc))
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		factSrc, err := os.ReadFile(filepath.Join(dir, "facts.txt"))
		if err != nil {
			t.Fatal(err)
		}
		facts, err := parser.ParseFacts(string(factSrc))
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		d := db.NewDatabase()
		for _, f := range facts {
			d.MustInsertAtom(f)
		}
		targetSrc, err := os.ReadFile(filepath.Join(dir, "targets.txt"))
		if err != nil {
			t.Fatal(err)
		}
		var targets []ast.Atom
		for _, line := range strings.Split(string(targetSrc), "\n") {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			a, err := parser.ParseAtom(line)
			if err != nil {
				t.Fatalf("%s: target %q: %v", dir, line, err)
			}
			targets = append(targets, a)
		}
		if len(targets) == 0 {
			t.Fatalf("%s: no targets", dir)
		}
		cases = append(cases, agreeCase{name: e.Name(), prog: prog, db: d, targets: targets})
	}
	if len(cases) < 3 {
		t.Fatalf("corpus has %d cases, want >= 3", len(cases))
	}
	return cases
}

// TestThreeWayAgreement is the exact/RIS/DNF differential battery: on
// every corpus instance and at Parallelism 1, 4, and 8, the RIS sampler
// (MagicCM) and the DNF possible-world sampler must agree within the
// statistical tolerance, and — whenever the instance is hierarchical, so
// the exact lifted tier applies — each sampler's estimate must lie within
// its error proxy of the exact contribution of the very seed set it chose.
// Three independently implemented evaluation paths (RR-set coverage, DNF
// world sampling, lifted inference) bounding each other leaves little room
// for a shared bug.
//
// The RIS leg is MagicCM, not Magic^S: both estimate Definition 3.4's
// edge-percolation contribution on chain-shaped programs, but Magic^S
// folds its draws into evaluation, so an instantiation whose body contains
// an underived idb atom never grounds. On joins over derived atoms that
// conditions RR membership on derivability — a strictly smaller event than
// path presence — so Magic^S is not comparable against the exact
// percolation value (see hier_star for the minimal separating instance).
func TestThreeWayAgreement(t *testing.T) {
	const theta = 2000
	for _, tc := range loadAgreeCorpus(t) {
		t.Run(tc.name, func(t *testing.T) {
			in := cm.Input{Program: tc.prog, DB: tc.db, T2: tc.targets, K: 2}
			// Each sampler estimate has stderr <= |T2|/(2 sqrt θ); 6 combined
			// sigmas between two samplers, 3 against an exact value.
			tol := 6 * float64(len(tc.targets)) / math.Sqrt(theta)
			exTol := tol / 2

			exact, err := cm.ExactCM(in, cm.Options{
				Theta: im.ThetaSpec{Explicit: theta},
				Rand:  rand.New(rand.NewPCG(9, 0xE5AC7)),
			})
			if err != nil {
				t.Fatal(err)
			}
			exactTier := exact.Stats.ExactFallback == ""
			if exactTier {
				// The exact tier's reported objective must equal the exact
				// contribution of its own seeds, bit-for-bit up to float noise.
				self, err := cm.ExactContribution(in, exact.Seeds, cm.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if diff := math.Abs(self - exact.EstContribution); diff > 1e-9 {
					t.Errorf("ExactCM self-inconsistent: greedy %.12f vs ExactContribution %.12f", exact.EstContribution, self)
				}
			}

			for _, par := range []int{1, 4, 8} {
				t.Run(fmt.Sprintf("P%d", par), func(t *testing.T) {
					opt := func(seed uint64) cm.Options {
						return cm.Options{
							Theta:       im.ThetaSpec{Explicit: theta},
							Parallelism: par,
							Rand:        rand.New(rand.NewPCG(seed, 0xE5AC7)),
						}
					}
					ris, err := cm.MagicCM(in, opt(uint64(par)))
					if err != nil {
						t.Fatal(err)
					}
					dnf, err := cm.DNFCM(in, opt(uint64(par)+100))
					if err != nil {
						t.Fatal(err)
					}
					if diff := math.Abs(ris.EstContribution - dnf.EstContribution); diff > tol {
						t.Errorf("RIS %.4f vs DNF %.4f: diff %.4f > tol %.4f",
							ris.EstContribution, dnf.EstContribution, diff, tol)
					}
					if !exactTier {
						return
					}
					for _, sampled := range []*cm.Result{ris, dnf} {
						ex, err := cm.ExactContribution(in, sampled.Seeds, cm.Options{})
						if err != nil {
							t.Fatal(err)
						}
						if diff := math.Abs(sampled.EstContribution - ex); diff > exTol {
							t.Errorf("%s %.4f vs exact value of its seeds %.4f: diff %.4f > tol %.4f",
								sampled.Algorithm, sampled.EstContribution, ex, diff, exTol)
						}
						// Greedy over the exact objective can only do at least
						// as well as any sampled seed set, up to exact ties.
						if exact.EstContribution < ex-1e-9 {
							t.Errorf("exact greedy %.6f below exact value %.6f of %s seeds",
								exact.EstContribution, ex, sampled.Algorithm)
						}
					}
				})
			}
		})
	}
}

// TestSolverAgreementCorpus is the cross-solver regression matrix: on every
// corpus instance, the RIS solvers (NaiveCM, MagicCM, Magic^G CM) and the
// Monte-Carlo reference estimator must produce contribution estimates that
// agree within the sampling tolerance. The solvers share one RR-set
// distribution (Proposition 4.4), so disagreement beyond the statistical
// bound is an implementation bug, not noise.
func TestSolverAgreementCorpus(t *testing.T) {
	const theta = 2000
	const mcSamples = 4000
	for _, tc := range loadAgreeCorpus(t) {
		t.Run(tc.name, func(t *testing.T) {
			in := cm.Input{Program: tc.prog, DB: tc.db, T2: tc.targets, K: 2}
			opt := func(seed uint64) cm.Options {
				return cm.Options{
					Theta: im.ThetaSpec{Explicit: theta},
					Rand:  rand.New(rand.NewPCG(seed, 0xC0FFEE)),
				}
			}
			naive, err := cm.NaiveCM(in, opt(1))
			if err != nil {
				t.Fatal(err)
			}
			magicRes, err := cm.MagicCM(in, opt(2))
			if err != nil {
				t.Fatal(err)
			}
			grouped, err := cm.MagicGroupedCM(in, opt(3))
			if err != nil {
				t.Fatal(err)
			}
			// Each estimate has stderr <= |T2|/(2 sqrt θ); 6 combined sigmas.
			tol := 6 * float64(len(tc.targets)) / math.Sqrt(theta)
			for _, other := range []*cm.Result{magicRes, grouped} {
				if diff := math.Abs(naive.EstContribution - other.EstContribution); diff > tol {
					t.Errorf("%s %.4f vs NaiveCM %.4f: diff %.4f > tol %.4f",
						other.Algorithm, other.EstContribution, naive.EstContribution, diff, tol)
				}
			}
			// Monte-Carlo reference: re-estimate NaiveCM's chosen seeds by
			// direct simulation over the full WD graph and require agreement
			// with the RIS coverage estimate.
			est, err := cm.NewEstimator(in)
			if err != nil {
				t.Fatal(err)
			}
			mc, stderr, err := est.ContributionCI(naive.Seeds, mcSamples, rand.New(rand.NewPCG(4, 4)))
			if err != nil {
				t.Fatal(err)
			}
			mcTol := tol + 4*stderr
			if diff := math.Abs(mc - naive.EstContribution); diff > mcTol {
				t.Errorf("Monte-Carlo %.4f vs RIS %.4f: diff %.4f > tol %.4f",
					mc, naive.EstContribution, diff, mcTol)
			}
		})
	}
}
