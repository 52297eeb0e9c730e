package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/planner"
)

// shapeProgram reads its start nodes from the input relation seed, as a
// Magic program's shape reads its queries from its query relation.
const shapeProgram = `
	0.8 r1: reach(X) :- seed(X).
	0.7 r2: reach(Y) :- reach(X), edge(X, Y).
	0.6 r3: reach(Y) :- edge(c, Y).
`

const shapeFacts = `edge(a, b). edge(b, c). edge(c, d). edge(d, a).`

// boundStream runs eng and renders its derivation stream, with each
// derivation's reported rule, and the reach relation.
func boundStream(t *testing.T, eng *engine.Engine, d *db.Database) string {
	t.Helper()
	var sb strings.Builder
	_, err := eng.Run(engine.Options{Listener: func(dv engine.Derivation) {
		fmt.Fprintf(&sb, "%d %s %s/%d %v\n", dv.RuleIndex, dv.Rule, dv.Head.Rel.Name(), dv.Head.ID, dv.HeadTuple)
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range d.Facts("reach") {
		sb.WriteString(f.String())
	}
	return sb.String()
}

// TestShapeBindRebindsFacts: one compilation, bound over databases that
// hold other input facts — other start nodes, several, or none — evaluates
// and reports rules exactly as an engine NewPlanned compiles over the same
// database.
func TestShapeBindRebindsFacts(t *testing.T) {
	prog := mustProgram(t, shapeProgram)
	base := mustFacts(t, shapeFacts)
	c, err := engine.Compile(prog, base.Symbols(), planner.New(nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, seeds := range [][]string{{"a"}, {"b"}, {"b", "d", "b"}, nil} {
		load := func() *db.Database {
			d := base.Scratch([]string{"edge"})
			for _, s := range seeds {
				d.MustInsertAtom(ast.NewAtom("seed", ast.C(s)))
			}
			return d
		}
		d := load()
		eng, err := c.Bind(d)
		if err != nil {
			t.Fatal(err)
		}
		got := boundStream(t, eng, d)
		d = load()
		eng, err = engine.NewPlanned(prog, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := boundStream(t, eng, d); got != want {
			t.Errorf("seeds %v: bound stream\n%s\nwant\n%s", seeds, got, want)
		}
	}
}

// TestShapeBindRejectsForeignDatabase: Bind refuses a database with another
// symbol table, and one whose relation has another arity than the
// program's.
func TestShapeBindRejectsForeignDatabase(t *testing.T) {
	prog := mustProgram(t, shapeProgram)
	base := mustFacts(t, shapeFacts)
	c, err := engine.Compile(prog, base.Symbols(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Bind(mustFacts(t, shapeFacts)); err == nil {
		t.Error("Bind accepted a database with another symbol table")
	}
	clash := base.Scratch([]string{"edge"})
	clash.Relation("reach", 2)
	if _, err := c.Bind(clash); err == nil {
		t.Error("Bind accepted a database whose reach relation has another arity")
	}
	if _, err := c.Bind(base.Scratch([]string{"edge"})); err != nil {
		t.Errorf("Bind over a scratch copy: %v", err)
	}
}
