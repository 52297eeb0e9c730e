package magic_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/magic"
	"contribmax/internal/wdgraph"
)

// randomPositiveProgram builds a small random positive probabilistic
// program over unary/binary predicates (edb: e0/1, e1/2).
func randomPositiveProgram(rng *rand.Rand) *ast.Program {
	type predSig struct {
		name  string
		arity int
	}
	idb := []predSig{{"p0", 1}, {"p1", 2}, {"p2", 2}}
	edb := []predSig{{"e0", 1}, {"e1", 2}}
	vars := []string{"X", "Y", "Z"}

	randAtom := func(p predSig) ast.Atom {
		terms := make([]ast.Term, p.arity)
		for i := range terms {
			if rng.IntN(6) == 0 {
				terms[i] = ast.C(fmt.Sprintf("c%d", rng.IntN(3)))
			} else {
				terms[i] = ast.V(vars[rng.IntN(len(vars))])
			}
		}
		return ast.NewAtom(p.name, terms...)
	}

	prog := ast.NewProgram()
	n := rng.IntN(4) + 2
	for i := 0; i < n; i++ {
		head := idb[rng.IntN(len(idb))]
		nBody := rng.IntN(2) + 1
		var body []ast.Atom
		for j := 0; j < nBody; j++ {
			if rng.IntN(2) == 0 {
				body = append(body, randAtom(edb[rng.IntN(len(edb))]))
			} else {
				body = append(body, randAtom(idb[rng.IntN(len(idb))]))
			}
		}
		bodyVars := ast.NewRule("", 1, ast.NewAtom("x"), body...).BodyVars()
		if len(bodyVars) == 0 {
			continue
		}
		terms := make([]ast.Term, head.arity)
		for j := range terms {
			terms[j] = ast.V(bodyVars[rng.IntN(len(bodyVars))])
		}
		prog.Add(ast.Rule{
			Label: fmt.Sprintf("r%d", i),
			Prob:  0.3 + 0.7*rng.Float64(),
			Head:  ast.NewAtom(head.name, terms...),
			Body:  body,
		})
	}
	return prog
}

func randomFactsDB(rng *rand.Rand) *db.Database {
	d := db.NewDatabase()
	n := rng.IntN(8) + 2
	for i := 0; i < n; i++ {
		if rng.IntN(2) == 0 {
			d.MustInsertAtom(ast.NewAtom("e0", ast.C(fmt.Sprintf("c%d", rng.IntN(3)))))
		} else {
			d.MustInsertAtom(ast.NewAtom("e1",
				ast.C(fmt.Sprintf("c%d", rng.IntN(3))), ast.C(fmt.Sprintf("c%d", rng.IntN(3)))))
		}
	}
	return d
}

// TestMagicIsomorphismOnRandomPrograms is the Proposition 4.4 property
// test: on random positive programs and databases, for every derivable idb
// tuple, the per-tuple magic graph restricted to its backward closure must
// equal the full WD graph's backward closure.
func TestMagicIsomorphismOnRandomPrograms(t *testing.T) {
	checked := 0
	for trial := 0; trial < 150 && checked < 400; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0xCAFE))
		prog := randomPositiveProgram(rng)
		if len(prog.Rules) == 0 || prog.Validate() != nil {
			continue
		}
		d := randomFactsDB(rng)
		fullGraph, _, err := wdgraph.Build(prog, d, wdgraph.BuildConfig{})
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, prog)
		}
		syms := d.Symbols()
		for _, pred := range prog.IDBs() {
			// wdgraph.Build evaluated over d directly, so the derived
			// facts are available in d.
			for _, target := range d.Facts(pred) {
				checked++
				tr, err := magic.Transform(prog, []ast.Atom{target})
				if err != nil {
					t.Fatalf("trial %d target %s: %v\n%s", trial, target, err, prog)
				}
				mg := evalMagic(t, prog, d, tr, nil)

				root, ok := fullGraph.FactID(target.Predicate, mustTuple(t, d, target))
				if !ok {
					t.Fatalf("trial %d: target %s missing from full graph", trial, target)
				}
				reach := map[wdgraph.NodeID]bool{}
				w := wdgraph.NewWalker(fullGraph)
				w.ReverseClosure(root, func(v wdgraph.NodeID) { reach[v] = true })
				wantSig := sortedSigs(ruleSigs(fullGraph, syms, reach))
				gotSig := sortedSigs(restrictedSigs(t, mg, d, []ast.Atom{target}))
				if fmt.Sprint(gotSig) != fmt.Sprint(wantSig) {
					t.Fatalf("trial %d target %s:\nprogram:\n%s\n got %v\nwant %v",
						trial, target, prog, gotSig, wantSig)
				}
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d targets checked; generator too restrictive", checked)
	}
}

// TestMagicIsomorphismBoundFirstSIPS re-runs the Proposition 4.4 property
// test under the BoundFirst SIPS: the strategy changes adornments and
// magic rules, never the projected graph's backward-reachable part.
func TestMagicIsomorphismBoundFirstSIPS(t *testing.T) {
	checked := 0
	for trial := 0; trial < 100 && checked < 200; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x51B5))
		prog := randomPositiveProgram(rng)
		if len(prog.Rules) == 0 || prog.Validate() != nil {
			continue
		}
		d := randomFactsDB(rng)
		fullGraph, _, err := wdgraph.Build(prog, d, wdgraph.BuildConfig{})
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, prog)
		}
		syms := d.Symbols()
		for _, pred := range prog.IDBs() {
			for _, target := range d.Facts(pred) {
				checked++
				tr, err := magic.TransformWith(prog, []ast.Atom{target}, magic.BoundFirst)
				if err != nil {
					t.Fatalf("trial %d target %s: %v\n%s", trial, target, err, prog)
				}
				mg := evalMagic(t, prog, d, tr, nil)
				root, ok := fullGraph.FactID(target.Predicate, mustTuple(t, d, target))
				if !ok {
					t.Fatalf("trial %d: target %s missing from full graph", trial, target)
				}
				reach := map[wdgraph.NodeID]bool{}
				w := wdgraph.NewWalker(fullGraph)
				w.ReverseClosure(root, func(v wdgraph.NodeID) { reach[v] = true })
				wantSig := sortedSigs(ruleSigs(fullGraph, syms, reach))
				gotSig := sortedSigs(restrictedSigs(t, mg, d, []ast.Atom{target}))
				if fmt.Sprint(gotSig) != fmt.Sprint(wantSig) {
					t.Fatalf("trial %d target %s (BoundFirst):\nprogram:\n%s\n got %v\nwant %v",
						trial, target, prog, gotSig, wantSig)
				}
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d targets checked", checked)
	}
}
