package cm_test

import (
	"sort"
	"testing"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
)

// dbT aliases db.Database for brevity in the test files.
type dbT = db.Database

func newDB() *db.Database { return db.NewDatabase() }

// evalFacts evaluates prog over a scratch database sharing d's edb
// relations and returns pred's derived atoms sorted by rendering. d itself
// is left untouched.
func evalFacts(t testing.TB, prog *ast.Program, d *db.Database, pred string) []ast.Atom {
	t.Helper()
	scratch := d.CloneSchema()
	for _, p := range prog.EDBs() {
		if rel, ok := d.Lookup(p); ok {
			scratch.Attach(rel)
		}
	}
	eng, err := engine.New(prog, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(engine.Options{}); err != nil {
		t.Fatal(err)
	}
	facts := scratch.Facts(pred)
	sort.Slice(facts, func(i, j int) bool { return facts[i].String() < facts[j].String() })
	return facts
}
