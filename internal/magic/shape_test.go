package magic_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/magic"
	"contribmax/internal/planner"
	"contribmax/internal/wdgraph"
	"contribmax/internal/workload"
)

// derivedFacts evaluates prog over d and returns every derived idb fact,
// grouped by predicate in relation order.
func derivedFacts(t testing.TB, prog *ast.Program, d *db.Database) [][]ast.Atom {
	t.Helper()
	scratch := d.Scratch(prog.EDBs())
	eng, err := engine.New(prog, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(engine.Options{}); err != nil {
		t.Fatal(err)
	}
	var out [][]ast.Atom
	for _, name := range scratch.RelationNames() {
		if facts := scratch.Facts(name); prog.IsIDB(name) && len(facts) > 0 {
			out = append(out, facts)
		}
	}
	return out
}

// checkRebinds compares, for every derived fact q of prog over d, the
// program rebound from its predicate's first fact's transform with
// TransformWith of q itself: rule text, Meta and Queries; and likewise the
// program rebound to all of the predicate's facts (a multi-seed program,
// with the first fact repeated at the end) with their TransformWith. A
// transform that fails under sips must fail under LeftToRight too: the
// transform's validity depends on the program, not on the order it
// processes bodies in. It returns the number of facts checked.
func checkRebinds(t *testing.T, name string, prog *ast.Program, d *db.Database, sips magic.SIPS) int {
	t.Helper()
	n := 0
	for _, facts := range derivedFacts(t, prog, d) {
		shape, shapeErr := magic.TransformWith(prog, facts[:1], sips)
		if shapeErr != nil && sips != magic.LeftToRight {
			if _, err := magic.TransformWith(prog, facts[:1], magic.LeftToRight); err == nil {
				t.Errorf("%s: transform of %s fails under SIPS %v only: %v", name, facts[0], sips, shapeErr)
			}
		}
		for _, q := range facts {
			want, err := magic.TransformWith(prog, []ast.Atom{q}, sips)
			if shapeErr != nil || err != nil {
				// The transform's validity does not depend on the
				// query's constants either.
				if fmt.Sprint(err) != fmt.Sprint(shapeErr) {
					t.Fatalf("%s: transform of %s: %v, of %s: %v", name, q, err, facts[0], shapeErr)
				}
				continue
			}
			n++
			checkRebind(t, name, shape, []ast.Atom{q}, want)
		}
		if shapeErr != nil {
			continue
		}
		all := append(facts[:len(facts):len(facts)], facts[0])
		want, err := magic.TransformWith(prog, all, sips)
		if err != nil {
			t.Fatalf("%s: transform of %d facts of %s: %v", name, len(all), facts[0].Predicate, err)
		}
		checkRebind(t, name, shape, all, want)
	}
	return n
}

// checkRebind compares shape rebound to qs with want: rule text, Meta
// and Queries.
func checkRebind(t *testing.T, name string, shape *magic.Transformed, qs []ast.Atom, want *magic.Transformed) {
	t.Helper()
	got, err := shape.Rebind(qs...)
	if err != nil {
		t.Fatalf("%s: rebind %s: %v", name, qs, err)
	}
	if g, w := got.Program.String(), want.Program.String(); g != w {
		t.Fatalf("%s: rebind %s: program\n%s\nwant\n%s", name, qs, g, w)
	}
	if !reflect.DeepEqual(got.Meta, want.Meta) {
		t.Fatalf("%s: rebind %s: meta %+v, want %+v", name, qs, got.Meta, want.Meta)
	}
	if g, w := fmt.Sprint(got.Queries), fmt.Sprint(want.Queries); g != w {
		t.Fatalf("%s: rebind %s: queries %s, want %s", name, qs, g, w)
	}
}

// TestShapeRebindMatchesTransform: a target's program rebound from another
// target's transform of the same predicate equals its own transform, for
// both SIPS, on every derived fact of small TC, Explain, IRIS and AMIE
// instances and of the 40 random positive programs TestGroundedRRMatchesGated
// draws.
func TestShapeRebindMatchesTransform(t *testing.T) {
	for _, sips := range []magic.SIPS{magic.LeftToRight, magic.BoundFirst} {
		checked := 0
		rng := rand.New(rand.NewPCG(0x6A0, 0x0D))
		for programs := 0; programs < 40; {
			prog, d, _, ok := generatedCase(t, rng, 3)
			if !ok {
				continue
			}
			programs++
			checked += checkRebinds(t, fmt.Sprintf("random program %d", programs), prog, d, sips)
		}
		for _, f := range []struct {
			name string
			size int
		}{{"TC", 12}, {"Explain", 40}, {"IRIS", 60}, {"AMIE", 4}} {
			w, err := workload.ByName(f.name, f.size, rand.New(rand.NewPCG(uint64(f.size), 7)))
			if err != nil {
				t.Fatal(err)
			}
			checked += checkRebinds(t, f.name, w.Program, w.DB, sips)
		}
		if checked < 1000 {
			t.Errorf("SIPS %v: only %d facts checked", sips, checked)
		}
	}
}

// TestShapeRebindRejects: only a single-query program rebinds, and only to
// ground atoms of its query predicate and arity.
func TestShapeRebindRejects(t *testing.T) {
	prog := mustProgram(t, tcProgram)
	tc := func(a, b string) ast.Atom { return ast.NewAtom("tc", ast.C(a), ast.C(b)) }
	single, err := magic.Transform(prog, []ast.Atom{tc("a", "b")})
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := magic.Transform(prog, []ast.Atom{tc("a", "b"), tc("b", "c")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := grouped.Rebind(tc("a", "c")); err == nil {
		t.Error("a multi-query program rebound")
	}
	for _, q := range []ast.Atom{
		ast.NewAtom("edge", ast.C("a"), ast.C("b")),
		ast.NewAtom("tc", ast.C("a")),
		ast.NewAtom("tc", ast.C("a"), ast.V("X")),
	} {
		if _, err := single.Rebind(q); err == nil {
			t.Errorf("tc program rebound to %s", q)
		}
		if _, err := single.Rebind(tc("b", "c"), q); err == nil {
			t.Errorf("tc program rebound to tc(b, c) and %s", q)
		}
	}
	if _, err := single.Rebind(); err == nil {
		t.Error("tc program rebound to no atom")
	}
	if _, err := single.Rebind(tc("b", "c")); err != nil {
		t.Errorf("rebind to tc(b, c): %v", err)
	}
	if _, err := single.Rebind(tc("b", "c"), tc("c", "a")); err != nil {
		t.Errorf("rebind to tc(b, c) and tc(c, a): %v", err)
	}
}

// runGated runs eng, bound over scratch for tr, gated by seed, and reads
// the run off the projected WD graph as gatedRun does.
func runGated(eng *engine.Engine, scratch, d *db.Database, tr *magic.Transformed, target ast.Atom, seed uint64) (sampledRun, error) {
	b := wdgraph.NewBuilder(tr.Projection())
	if _, err := eng.Run(engine.Options{Listener: b.Listener(), Gate: magic.NewHashGate(tr, eng, seed)}); err != nil {
		return sampledRun{}, err
	}
	g := b.Graph()
	tuple, err := d.InternAtom(target)
	if err != nil {
		return sampledRun{}, err
	}
	out := sampledRun{nodes: g.NumNodes(), edges: g.NumEdges()}
	if root, ok := g.FactID(target.Predicate, tuple); ok {
		out.present = true
		wdgraph.NewWalker(g).ReverseClosure(root, func(v wdgraph.NodeID) {
			if n := g.Node(v); n.Kind == wdgraph.FactNode && n.EDB {
				out.rr = append(out.rr, renderFact(d, n.Pred, n.Tuple))
			}
		})
	}
	if rel, ok := scratch.Lookup(tr.Queries[0].Predicate); ok {
		_, out.derived = rel.Contains(tuple)
	}
	slices.Sort(out.rr)
	return out, nil
}

// TestShapeBindConcurrent binds one compiled shape from four goroutines at
// once, each running gated Magic^S evaluations of every target of the
// predicate under every seed, and checks each run against an engine
// compiled on its own with NewPlanned: the same RR set, target and query
// verdicts, and node and edge counts.
func TestShapeBindConcurrent(t *testing.T) {
	w, err := workload.ByName("AMIE", 8, rand.New(rand.NewPCG(8, 1)))
	if err != nil {
		t.Fatal(err)
	}
	prog, d := w.Program, w.DB
	var targets []ast.Atom
	for _, facts := range derivedFacts(t, prog, d) {
		if facts[0].Predicate == "dealsWith" {
			targets = facts[:min(len(facts), 6)]
		}
	}
	if len(targets) < 2 {
		t.Fatal("too few dealsWith targets")
	}
	shape, err := magic.Transform(prog, targets[:1])
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := engine.Compile(shape.Program, d.Symbols(), planner.New(nil))
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]*magic.Transformed, len(targets))
	for i, q := range targets {
		if trs[i], err = shape.Rebind(q); err != nil {
			t.Fatal(err)
		}
	}
	seeds := gateSeeds(rand.New(rand.NewPCG(8, 3)), 5)
	type job struct{ ti, si int }
	var jobs []job
	want := map[job]sampledRun{}
	for ti := range targets {
		for si, seed := range seeds {
			scratch := d.Scratch(prog.EDBs())
			eng, err := engine.NewPlanned(trs[ti].Program, scratch, nil)
			if err != nil {
				t.Fatal(err)
			}
			r, err := runGated(eng, scratch, d, trs[ti], targets[ti], seed)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{ti, si})
			want[job{ti, si}] = r
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				j := jobs[(k+g*len(jobs)/4)%len(jobs)]
				scratch := d.Scratch(prog.EDBs())
				eng, err := compiled.Bind(trs[j.ti].Program, scratch)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := runGated(eng, scratch, d, trs[j.ti], targets[j.ti], seeds[j.si])
				if err != nil {
					t.Error(err)
					return
				}
				if got.String() != want[j].String() {
					t.Errorf("goroutine %d, target %s, seed %#x:\n  bound    %s\n  compiled %s", g, targets[j.ti], seeds[j.si], got, want[j])
				}
			}
		}()
	}
	wg.Wait()
}
