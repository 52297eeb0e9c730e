package engine_test

import (
	"os"
	"path/filepath"
	"testing"

	"contribmax/internal/analysis"
	"contribmax/internal/engine"
	"contribmax/internal/engine/difftest"
	"contribmax/internal/parser"
)

// Input ceilings for FuzzEvalProgram. The engine only checks cancellation
// and MaxRounds at round boundaries, so a single pathological round must
// already be cheap: a rule body is a potential cross product, so the
// worst-case pass is fuzzMaxFacts^fuzzMaxBody instantiations (24^3 ≈ 14k),
// times rules × body positions × evaluation levels — comfortably inside a
// fuzz iteration's budget. (Body length 4 over 32 facts, the previous
// ceilings, let the fuzzer synthesize single rounds of ~10^6
// instantiations per pass and drop throughput to a few execs/sec.)
const (
	fuzzMaxProgBytes = 2048
	fuzzMaxFactBytes = 1024
	fuzzMaxRules     = 12
	fuzzMaxBody      = 3
	fuzzMaxFacts     = 24
	fuzzMaxRounds    = 4
	fuzzMaxDerived   = 2000
)

// FuzzEvalProgram drives the full front half of the pipeline — parse,
// analyze, stratify, evaluate — on arbitrary program/fact sources,
// asserting crash-freedom, that parallel evaluation agrees byte-for-byte
// with sequential evaluation (including mid-run aborts from the round and
// derivation budgets), and that every rule's planner order equals the
// test-only reference order. Inputs the pipeline itself rejects
// (parse or analysis errors, unstratifiable programs, schema conflicts)
// are skipped: rejection is correct behavior, crashing is the bug.
func FuzzEvalProgram(f *testing.F) {
	for _, p := range []string{
		"../../examples/quickstart/program.dl",
		"../../examples/uncertain/program.dl",
		"../../testdata/trade.dl",
	} {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		var factSrc []byte
		for _, fp := range []string{"trade.facts", "extracted.facts"} {
			if b, err := os.ReadFile(filepath.Join(filepath.Dir(p), fp)); err == nil {
				factSrc = b
				break
			}
		}
		f.Add(string(src), string(factSrc))
	}
	f.Add("a(X) :- e(X).\nb(X) :- a(X), not c(X).\nc(X) :- e2(X).", "e(k1). e(k2). e2(k1).")
	f.Add("t(X,Z) :- t(X,Y), t(Y,Z).\nt(X,Y) :- e(X,Y).", "e(a,b). e(b,c). e(c,a).")
	f.Add("p(X) :- e(X), lt(X, c9).", "e(c1). e(c42).")
	// Score ties among the non-delta atoms: the order check needs them.
	f.Add("p(X, Y, Z) :- a(X), b(Y), c(Z).", "a(k). b(k). c(k).")

	f.Fuzz(func(t *testing.T, progSrc, factSrc string) {
		if len(progSrc) > fuzzMaxProgBytes || len(factSrc) > fuzzMaxFactBytes {
			t.Skip("oversized input")
		}
		prog, err := parser.ParseProgram(progSrc)
		if err != nil {
			return
		}
		if len(prog.Rules) > fuzzMaxRules {
			return
		}
		for _, r := range prog.Rules {
			if len(r.Body) > fuzzMaxBody {
				return
			}
		}
		if err := analysis.FirstError(analysis.Analyze(prog, analysis.Options{})); err != nil {
			return
		}
		if _, err := engine.Stratify(prog); err != nil {
			return
		}
		facts, err := parser.ParseProbFacts(factSrc)
		if err != nil || len(facts) > fuzzMaxFacts {
			return
		}
		spec := &difftest.Spec{Prog: prog}
		for _, pf := range facts {
			spec.Facts = append(spec.Facts, pf.Atom)
		}
		d, err := spec.NewDB()
		if err != nil {
			return // facts with clashing arities
		}
		eng, err := engine.New(prog, d)
		if err != nil {
			return // fact schema conflicts with the program's
		}
		if msg := orderMismatch(spec, eng); msg != "" {
			t.Fatal(msg)
		}
		err = difftest.CompareParallel(spec, engine.Options{MaxRounds: fuzzMaxRounds}, fuzzMaxDerived, []int{2, 4})
		if err != nil {
			t.Fatal(err)
		}
	})
}
