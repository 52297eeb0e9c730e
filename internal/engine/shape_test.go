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

const shapeProgram = `
	1 s: seed(a).
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

// TestShapeBindRebindsFacts: a compiled program binds to a program whose
// facts carry other constants, and the bound engine evaluates — and
// reports rules — exactly as an engine compiled from that program.
func TestShapeBindRebindsFacts(t *testing.T) {
	prog := mustProgram(t, shapeProgram)
	base := mustFacts(t, shapeFacts)
	c, err := engine.Compile(prog, base.Symbols(), planner.New(nil))
	if err != nil {
		t.Fatal(err)
	}
	other := prog.Clone()
	other.Rules[0].Head = ast.NewAtom("seed", ast.C("b"))
	for _, p := range []*ast.Program{prog, prog.Clone(), other} {
		d := base.Scratch([]string{"edge"})
		eng, err := c.Bind(p, d)
		if err != nil {
			t.Fatal(err)
		}
		got := boundStream(t, eng, d)
		d = base.Scratch([]string{"edge"})
		eng, err = engine.NewPlanned(p, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := boundStream(t, eng, d); got != want {
			t.Errorf("bound to\n%s\nstream\n%s\nwant\n%s", p, got, want)
		}
	}
}

// TestShapeBindRejectsOtherRules: Bind accepts nothing but the compiled
// rules with other constants in body-less facts, over a database sharing
// the compiled symbol table.
func TestShapeBindRejectsOtherRules(t *testing.T) {
	prog := mustProgram(t, shapeProgram)
	base := mustFacts(t, shapeFacts)
	c, err := engine.Compile(prog, base.Symbols(), nil)
	if err != nil {
		t.Fatal(err)
	}
	edit := func(i int, src string) *ast.Program {
		p := prog.Clone()
		p.Rules[i] = mustProgram(t, src).Rules[0]
		return p
	}
	longer := prog.Clone()
	longer.Add(mustProgram(t, `0.5 r4: reach(X) :- edge(X, X).`).Rules[0])
	unsafe := prog.Clone()
	unsafe.Rules[0].Head = ast.NewAtom("seed", ast.V("X"))
	for _, tc := range []struct {
		name string
		prog *ast.Program
	}{
		{"extra rule", longer},
		{"other body", edit(2, `0.7 r2: reach(Y) :- reach(X), edge(Y, X).`)},
		{"other probability", edit(1, `0.9 r1: reach(X) :- seed(X).`)},
		{"other constant in a rule with a body", edit(3, `0.6 r3: reach(Y) :- edge(d, Y).`)},
		{"fact relabelled", edit(0, `1 t: seed(b).`)},
		{"fact of another predicate", edit(0, `1 s: start(b).`)},
		{"fact of another probability", edit(0, `0.5 s: seed(b).`)},
		{"fact given a body", edit(0, `1 s: seed(X) :- edge(X, b).`)},
		{"fact with a variable", unsafe},
	} {
		if _, err := c.Bind(tc.prog, base.Scratch([]string{"edge"})); err == nil {
			t.Errorf("%s: Bind accepted\n%s", tc.name, tc.prog)
		}
	}
	if _, err := c.Bind(prog, mustFacts(t, shapeFacts)); err == nil {
		t.Error("Bind accepted a database with another symbol table")
	}
	clash := base.Scratch([]string{"edge"})
	clash.Relation("reach", 2)
	if _, err := c.Bind(prog, clash); err == nil {
		t.Error("Bind accepted a database whose reach relation has another arity")
	}
}
