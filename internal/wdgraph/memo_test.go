package wdgraph

import (
	"fmt"
	"testing"

	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/parser"
)

// memoDB holds a 5000-tuple edb relation e of which the rule below joins
// only two tuples (those whose first column is in s).
func memoDB() (*db.Database, *db.Relation) {
	d := db.NewDatabase()
	sym := func(i int) db.Sym { return d.Symbols().Intern(fmt.Sprint("c", i)) }
	e := d.Relation("e", 2)
	for i := 0; i < 5000; i++ {
		e.Insert(db.Tuple{sym(i), sym(i + 1)})
	}
	s := d.Relation("s", 1)
	s.Insert(db.Tuple{sym(4000)})
	s.Insert(db.Tuple{sym(4999)})
	return d, e
}

// TestFactMemoFollowsTouchedFacts pins the memo's cost bound: a build that
// touches two tuples of a large edb relation it did not preload keeps
// their nodes in a map, not in an array sized by the relation (a Magic^S
// RR subgraph shares its edb relations with the input database, so such
// an array would cost O(|D|) per RR set). The idb relation the build
// fills, and an edb relation the preload walks in full, use arrays.
// Resolving a fact the memo has seen allocates nothing either way.
func TestFactMemoFollowsTouchedFacts(t *testing.T) {
	prog, err := parser.ParseProgram(`0.5 r: p(X) :- s(X), e(X, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	d, e := memoDB()
	b := NewBuilder(IdentityProjection(prog))
	eng, err := engine.New(prog, d)
	if err != nil {
		t.Fatal(err)
	}
	var refs []engine.FactRef
	if _, err := eng.Run(engine.Options{Listener: func(dv engine.Derivation) {
		refs = append(refs, dv.Head)
		refs = append(refs, dv.Body...)
		b.observe(dv)
	}}); err != nil {
		t.Fatal(err)
	}
	if m := b.rels[e]; len(m.ids) != 0 || len(m.sparse) != 2 {
		t.Errorf("edb memo: array %d, map %d; want a 2-entry map", len(m.ids), len(m.sparse))
	}
	p, _ := d.Lookup("p")
	if m := b.rels[p]; m.sparse != nil || len(m.ids) != 2 {
		t.Errorf("idb memo: array %d, map %v; want a 2-entry array", len(m.ids), m.sparse)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, ref := range refs {
			b.fact(ref)
		}
	}); n != 0 {
		t.Errorf("resolving seen facts allocates %.1f objects per run, want 0", n)
	}

	pre := NewBuilder(IdentityProjection(prog))
	pre.PreloadEDB(prog, d)
	if m := pre.rels[e]; m.sparse != nil || len(m.ids) != e.Len() {
		t.Errorf("preloaded edb memo: array %d, map %v; want an array of %d", len(m.ids), m.sparse, e.Len())
	}
}
