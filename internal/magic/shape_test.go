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

// shapeGraph binds c, the compiled shape of tr, over a scratch copy of d
// holding the query q, and renders the projected WD subgraph of the run.
func shapeGraph(t *testing.T, prog *ast.Program, d *db.Database, c *engine.Compiled, tr *magic.Transformed, q ast.Atom) string {
	t.Helper()
	return projectedGraph(t, boundShape(t, prog, d, c, tr, []ast.Atom{q}), tr, d)
}

// programGraph evaluates tr's self-contained program over a scratch copy
// of d and renders the projected WD subgraph of the run.
func programGraph(t *testing.T, prog *ast.Program, d *db.Database, tr *magic.Transformed) string {
	t.Helper()
	eng, err := engine.New(tr.Program, d.Scratch(prog.EDBs()))
	if err != nil {
		t.Fatal(err)
	}
	return projectedGraph(t, eng, tr, d)
}

func projectedGraph(t *testing.T, eng *engine.Engine, tr *magic.Transformed, d *db.Database) string {
	t.Helper()
	b := wdgraph.NewBuilder(tr.Projection())
	if _, err := eng.Run(engine.Options{Listener: b.Listener()}); err != nil {
		t.Fatal(err)
	}
	return b.Graph().DebugString(d.Symbols())
}

// checkShapes checks, for every derived fact q of prog over d, that q's
// transform has the shape of its predicate's first fact's transform (rule
// text and Meta), as the transform of all the predicate's facts at once
// does, and that the WD subgraph of that one compiled shape with q loaded
// equals the one of q's own self-contained program. A transform that
// fails under sips must fail under LeftToRight too: the transform's
// validity depends on the program, not on the order it processes bodies
// in. It returns the number of facts checked.
func checkShapes(t *testing.T, name string, prog *ast.Program, d *db.Database, sips magic.SIPS) int {
	t.Helper()
	n := 0
	for _, facts := range derivedFacts(t, prog, d) {
		shape, shapeErr := magic.TransformWith(prog, facts[:1], sips)
		if shapeErr != nil && sips != magic.LeftToRight {
			if _, err := magic.TransformWith(prog, facts[:1], magic.LeftToRight); err == nil {
				t.Errorf("%s: transform of %s fails under SIPS %v only: %v", name, facts[0], sips, shapeErr)
			}
		}
		var c *engine.Compiled
		if shapeErr == nil {
			var err error
			if c, err = engine.Compile(shape.Shape(), d.Symbols(), planner.New(nil)); err != nil {
				t.Fatalf("%s: compile the shape of %s: %v", name, facts[0], err)
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
			checkShape(t, name, shape, []ast.Atom{q}, want)
			if got, want := shapeGraph(t, prog, d, c, shape, q), programGraph(t, prog, d, want); got != want {
				t.Fatalf("%s: %s: graph of the bound shape\n%s\nwant\n%s", name, q, got, want)
			}
		}
		if shapeErr != nil {
			continue
		}
		want, err := magic.TransformWith(prog, facts, sips)
		if err != nil {
			t.Fatalf("%s: transform of %d facts of %s: %v", name, len(facts), facts[0].Predicate, err)
		}
		checkShape(t, name, shape, facts, want)
	}
	return n
}

// checkShape compares the shape of tr, the transform of qs, with shape's:
// rule text and Meta.
func checkShape(t *testing.T, name string, shape *magic.Transformed, qs []ast.Atom, tr *magic.Transformed) {
	t.Helper()
	if got, want := tr.Shape().String(), shape.Shape().String(); got != want {
		t.Fatalf("%s: shape of %s:\n%s\nwant\n%s", name, qs, got, want)
	}
	n := len(shape.Shape().Rules)
	if len(tr.Shape().Rules) != n || !reflect.DeepEqual(tr.Meta[:n], shape.Meta[:n]) {
		t.Fatalf("%s: shape meta of %s: %+v, want %+v", name, qs, tr.Meta, shape.Meta[:n])
	}
}

// TestShapeRebindMatchesTransform: every target's transform has the shape
// of its predicate's first target's transform, and the compiled shape,
// bound over a database holding the target's query, builds the WD
// subgraph of the target's own program, for both SIPS, on every derived
// fact of small TC, Explain, IRIS and AMIE instances and of the 40 random
// positive programs TestGroundedRRMatchesGated draws.
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
			checked += checkShapes(t, fmt.Sprintf("random program %d", programs), prog, d, sips)
		}
		for _, f := range []struct {
			name string
			size int
		}{{"TC", 12}, {"Explain", 40}, {"IRIS", 60}, {"AMIE", 4}} {
			w, err := workload.ByName(f.name, f.size, rand.New(rand.NewPCG(uint64(f.size), 7)))
			if err != nil {
				t.Fatal(err)
			}
			checked += checkShapes(t, f.name, w.Program, w.DB, sips)
		}
		if checked < 1000 {
			t.Errorf("SIPS %v: only %d facts checked", sips, checked)
		}
	}
}

// TestShapeRebindRejects: LoadQueries takes queries of the program's query
// predicates only, at their arity.
func TestShapeRebindRejects(t *testing.T) {
	prog := mustProgram(t, tcProgram+`0.5 r3: far(X) :- tc(X, X).`)
	d := mustDB(t, "e(a, b). e(b, c). e(c, a).")
	tuple := func(consts ...string) db.Tuple {
		out := make(db.Tuple, len(consts))
		for i, c := range consts {
			out[i] = d.Symbols().Intern(c)
		}
		return out
	}
	single, err := magic.Transform(prog, []ast.Atom{atom(t, "tc(a, b)")})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		pred  string
		tuple db.Tuple
	}{{"e", tuple("a", "b")}, {"far", tuple("a")}, {"tc", tuple("a")}, {"tc", tuple("a", "b", "c")}} {
		if err := single.LoadQueries(d.Scratch(nil), bad.pred, bad.tuple); err == nil {
			t.Errorf("tc program loaded the query %s%v", bad.pred, bad.tuple)
		}
	}
	if err := single.LoadQueries(d.Scratch(nil), "tc", tuple("b", "c"), tuple("a")); err == nil {
		t.Error("tc program loaded the queries tc(b, c) and tc(a)")
	}
	if err := single.LoadQueries(d.Scratch(nil), "tc", tuple("b", "c"), tuple("c", "a")); err != nil {
		t.Errorf("load tc(b, c) and tc(c, a): %v", err)
	}
	grouped, err := magic.Transform(prog, []ast.Atom{atom(t, "tc(a, b)"), atom(t, "far(a)")})
	if err != nil {
		t.Fatal(err)
	}
	scratch := d.Scratch(nil)
	if err := grouped.LoadQueries(scratch, "tc", tuple("b", "c")); err != nil {
		t.Errorf("grouped program: load tc(b, c): %v", err)
	}
	if err := grouped.LoadQueries(scratch, "far", tuple("b")); err != nil {
		t.Errorf("grouped program: load far(b): %v", err)
	}
	if got := fmt.Sprint(scratch.Facts(magic.QueryPred("tc", "bb")), scratch.Facts(magic.QueryPred("far", "b"))); got != "[q@tc@bb(b, c)] [q@far@b(b)]" {
		t.Errorf("loaded queries %s", got)
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
// predicate under every seed over a database holding the target's query,
// and checks each run against an engine NewPlanned compiles from the
// target's own program: the same RR set, target and query verdicts, and
// node and edge counts.
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
	compiled, err := engine.Compile(shape.Shape(), d.Symbols(), planner.New(nil))
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]db.Tuple, len(targets))
	for i, q := range targets {
		if tuples[i], err = d.InternAtom(q); err != nil {
			t.Fatal(err)
		}
	}
	seeds := gateSeeds(rand.New(rand.NewPCG(8, 3)), 5)
	type job struct{ ti, si int }
	var jobs []job
	want := map[job]sampledRun{}
	for ti, q := range targets {
		tr, err := magic.Transform(prog, []ast.Atom{q})
		if err != nil {
			t.Fatal(err)
		}
		for si, seed := range seeds {
			scratch := d.Scratch(prog.EDBs())
			eng, err := engine.NewPlanned(tr.Program, scratch, nil)
			if err != nil {
				t.Fatal(err)
			}
			r, err := runGated(eng, scratch, d, tr, q, seed)
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
				if err := shape.LoadQueries(scratch, "dealsWith", tuples[j.ti]); err != nil {
					t.Error(err)
					return
				}
				eng, err := compiled.Bind(scratch)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := runGated(eng, scratch, d, shape, targets[j.ti], seeds[j.si])
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
