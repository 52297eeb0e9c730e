package db_test

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"contribmax/internal/ast"
	"contribmax/internal/db"
)

func TestSymbolTableInternIsIdempotent(t *testing.T) {
	st := db.NewSymbolTable()
	a := st.Intern("france")
	b := st.Intern("cuba")
	if a == b {
		t.Error("distinct names share an id")
	}
	if st.Intern("france") != a {
		t.Error("re-intern changed id")
	}
	if st.Name(a) != "france" || st.Name(b) != "cuba" {
		t.Error("Name round trip failed")
	}
	if st.Len() != 2 {
		t.Errorf("Len = %d", st.Len())
	}
	if id, ok := st.Lookup("cuba"); !ok || id != b {
		t.Error("Lookup(cuba) failed")
	}
	if _, ok := st.Lookup("nowhere"); ok {
		t.Error("Lookup(nowhere) should miss")
	}
}

func TestSymbolTableZeroValueUsable(t *testing.T) {
	var st db.SymbolTable
	if st.Intern("x") != 0 {
		t.Error("first intern of zero-value table should be 0")
	}
}

func TestTupleKeyInjective(t *testing.T) {
	// Property: Key is injective on tuples of the same arity.
	f := func(a, b []int16) bool {
		ta := make(db.Tuple, len(a))
		tb := make(db.Tuple, len(b))
		for i, v := range a {
			ta[i] = db.Sym(v)
		}
		for i, v := range b {
			tb[i] = db.Sym(v)
		}
		if len(ta) == len(tb) {
			return (ta.Key() == tb.Key()) == ta.Equal(tb)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestRelationInsertAndContains(t *testing.T) {
	r := db.NewRelation("e", 2)
	id1, added := r.Insert(db.Tuple{1, 2})
	if !added || id1 != 0 {
		t.Errorf("first insert: id=%d added=%v", id1, added)
	}
	id2, added := r.Insert(db.Tuple{1, 2})
	if added || id2 != id1 {
		t.Error("duplicate insert should be a no-op returning the old id")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	if id, ok := r.Contains(db.Tuple{1, 2}); !ok || id != id1 {
		t.Error("Contains failed")
	}
	if _, ok := r.Contains(db.Tuple{2, 1}); ok {
		t.Error("Contains(2,1) should miss")
	}
}

func TestRelationInsertCopiesTuple(t *testing.T) {
	r := db.NewRelation("e", 2)
	buf := db.Tuple{1, 2}
	id, _ := r.Insert(buf)
	buf[0] = 99
	if r.Tuple(id)[0] != 1 {
		t.Error("Insert did not copy the tuple")
	}
}

func TestLookupPattern(t *testing.T) {
	r := db.NewRelation("e", 2)
	r.Insert(db.Tuple{1, 2})
	r.Insert(db.Tuple{1, 3})
	r.Insert(db.Tuple{2, 3})

	ids, ok := r.LookupPattern(0b01, db.Tuple{1, 0})
	if !ok || len(ids) != 2 {
		t.Errorf("first-bound lookup = %v ok=%v", ids, ok)
	}
	ids, ok = r.LookupPattern(0b10, db.Tuple{0, 3})
	if !ok || len(ids) != 2 {
		t.Errorf("second-bound lookup = %v ok=%v", ids, ok)
	}
	ids, ok = r.LookupPattern(0b11, db.Tuple{2, 3})
	if !ok || len(ids) != 1 || ids[0] != 2 {
		t.Errorf("both-bound lookup = %v", ids)
	}
	if _, ok := r.LookupPattern(0, nil); ok {
		t.Error("empty mask should report no index")
	}
}

func TestLookupPatternMaintainedAcrossInserts(t *testing.T) {
	r := db.NewRelation("e", 2)
	r.Insert(db.Tuple{1, 2})
	// Build the index, then insert more tuples; index must stay fresh.
	if ids, _ := r.LookupPattern(0b01, db.Tuple{1, 0}); len(ids) != 1 {
		t.Fatalf("pre-insert lookup = %v", ids)
	}
	r.Insert(db.Tuple{1, 7})
	r.Insert(db.Tuple{2, 7})
	ids, _ := r.LookupPattern(0b01, db.Tuple{1, 0})
	if len(ids) != 2 {
		t.Errorf("post-insert lookup = %v", ids)
	}
	// Ids must be ascending (the engine's range filters rely on it).
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
		t.Error("ids not ascending")
	}
}

// TestRelationProbesAllocFree pins the key-free probe paths: Contains,
// the hit path of Insert and LookupPattern (hit or miss) pack their keys
// on the stack. The index is created before the inserts, so its buckets
// are filled by Insert's index maintenance.
func TestRelationProbesAllocFree(t *testing.T) {
	r := db.NewRelation("r", 3)
	r.LookupPattern(0b101, db.Tuple{0, 0, 0}) // builds the index
	for i := 0; i < 50; i++ {
		r.Insert(db.Tuple{db.Sym(i % 7), db.Sym(i), db.Sym(i % 3)})
	}
	hit, miss := db.Tuple{3, 10, 1}, db.Tuple{99, 0, 99}
	if n := testing.AllocsPerRun(100, func() {
		r.Contains(hit)
		r.Contains(miss)
		r.Insert(hit)
		r.LookupPattern(0b101, hit)
		r.LookupPattern(0b101, miss)
	}); n != 0 {
		t.Errorf("probes allocate %.1f objects per run, want 0", n)
	}
	// i%7 == 3 and i%3 == 1: i = 10 and 31.
	if ids, _ := r.LookupPattern(0b101, hit); fmt.Sprint(ids) != "[10 31]" {
		t.Errorf("LookupPattern = %v, want [10 31]", ids)
	}
	if ids, ok := r.LookupPattern(0b101, miss); !ok || ids != nil {
		t.Errorf("LookupPattern miss = %v, %v; want nil, true", ids, ok)
	}
}

func TestLookupPatternProperty(t *testing.T) {
	// Property: for random tuple sets, an indexed lookup returns exactly
	// the tuples a linear scan finds.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		r := db.NewRelation("p", 3)
		n := rng.Intn(60)
		for i := 0; i < n; i++ {
			r.Insert(db.Tuple{db.Sym(rng.Intn(4)), db.Sym(rng.Intn(4)), db.Sym(rng.Intn(4))})
		}
		mask := uint32(rng.Intn(7) + 1)
		probe := db.Tuple{db.Sym(rng.Intn(4)), db.Sym(rng.Intn(4)), db.Sym(rng.Intn(4))}
		got, ok := r.LookupPattern(mask, probe)
		if !ok {
			t.Fatal("index expected")
		}
		var want []db.TupleID
		for id := 0; id < r.Len(); id++ {
			tup := r.Tuple(db.TupleID(id))
			match := true
			for pos := 0; pos < 3; pos++ {
				if mask&(1<<uint(pos)) != 0 && tup[pos] != probe[pos] {
					match = false
					break
				}
			}
			if match {
				want = append(want, db.TupleID(id))
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d mask %b probe %v: got %v want %v", trial, mask, probe, got, want)
		}
	}
}

func TestDatabaseInsertAndFacts(t *testing.T) {
	d := db.NewDatabase()
	a := ast.NewAtom("exports", ast.C("france"), ast.C("wine"))
	rel, id, added, err := d.InsertAtom(a)
	if err != nil || !added || rel.Name() != "exports" {
		t.Fatalf("InsertAtom: %v %v %v", rel, added, err)
	}
	if got := d.AtomOf(rel, id); !got.Equal(a) {
		t.Errorf("AtomOf = %s", got)
	}
	facts := d.Facts("exports")
	if len(facts) != 1 || !facts[0].Equal(a) {
		t.Errorf("Facts = %v", facts)
	}
	if d.Facts("nothing") != nil {
		t.Error("Facts of unknown relation should be nil")
	}
	if d.TotalTuples() != 1 {
		t.Errorf("TotalTuples = %d", d.TotalTuples())
	}
	if _, _, _, err := d.InsertAtom(ast.NewAtom("p", ast.V("X"))); err == nil {
		t.Error("non-ground insert should error")
	}
}

func TestDatabaseArityPanic(t *testing.T) {
	d := db.NewDatabase()
	d.Relation("p", 2)
	defer func() {
		if recover() == nil {
			t.Error("arity clash should panic")
		}
	}()
	d.Relation("p", 3)
}

func TestCloneSchemaAndAttach(t *testing.T) {
	d := db.NewDatabase()
	d.MustInsertAtom(ast.NewAtom("e", ast.C("a"), ast.C("b")))
	c := d.CloneSchema()
	rel, _ := d.Lookup("e")
	c.Attach(rel)
	// Shared relation: inserts through either handle are visible to both.
	got, ok := c.Lookup("e")
	if !ok || got != rel {
		t.Fatal("Attach did not share the relation")
	}
	// Symbols shared too.
	if _, ok := c.Symbols().Lookup("a"); !ok {
		t.Error("symbol table not shared")
	}
	// Re-attaching the same relation is a no-op; a different one panics.
	c.Attach(rel)
	other := db.NewRelation("e", 2)
	defer func() {
		if recover() == nil {
			t.Error("attaching a different relation under a taken name should panic")
		}
	}()
	c.Attach(other)
}

func TestScratchAttachesNamedRelationsInOrder(t *testing.T) {
	d := db.NewDatabase()
	d.MustInsertAtom(ast.NewAtom("e", ast.C("a"), ast.C("b")))
	d.MustInsertAtom(ast.NewAtom("f", ast.C("c")))
	d.MustInsertAtom(ast.NewAtom("g", ast.C("d")))
	s := d.Scratch([]string{"g", "missing", "e"})
	if got := s.RelationNames(); fmt.Sprint(got) != "[g e]" {
		t.Errorf("Scratch relations = %v, want [g e] (given order, missing skipped)", got)
	}
	e, _ := d.Lookup("e")
	if got, ok := s.Lookup("e"); !ok || got != e {
		t.Error("Scratch did not share relation e by reference")
	}
	if _, ok := s.Symbols().Lookup("c"); !ok {
		t.Error("Scratch did not share the symbol table")
	}
	s.MustInsertAtom(ast.NewAtom("p", ast.C("a")))
	if _, ok := d.Lookup("p"); ok {
		t.Error("a relation created in the scratch database leaked into the original")
	}
}

func TestRelationNamesOrderedAndStats(t *testing.T) {
	d := db.NewDatabase()
	d.MustInsertAtom(ast.NewAtom("zz", ast.C("1")))
	d.MustInsertAtom(ast.NewAtom("aa", ast.C("2")))
	if got := d.RelationNames(); fmt.Sprint(got) != "[zz aa]" {
		t.Errorf("RelationNames = %v (want creation order)", got)
	}
	if s := d.Stats(); !strings.Contains(s, "aa/1: 1 tuples") {
		t.Errorf("Stats = %q", s)
	}
}

func TestMatch(t *testing.T) {
	d := db.NewDatabase()
	for _, f := range []string{"a b", "a c", "b b", "c a"} {
		var x, y string
		fmt.Sscanf(f, "%s %s", &x, &y)
		d.MustInsertAtom(ast.NewAtom("e", ast.C(x), ast.C(y)))
	}
	got, err := d.Match(ast.NewAtom("e", ast.C("a"), ast.V("Y")))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("e(a, Y) = %v, want 2 matches", got)
	}
	got, err = d.Match(ast.NewAtom("e", ast.V("X"), ast.V("X")))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].String() != "e(b, b)" {
		t.Errorf("e(X, X) = %v", got)
	}
	got, err = d.Match(ast.NewAtom("e", ast.V("X"), ast.V("Y")))
	if err != nil || len(got) != 4 {
		t.Errorf("e(X, Y) = %v err=%v", got, err)
	}
	got, err = d.Match(ast.NewAtom("e", ast.C("zz"), ast.V("Y")))
	if err != nil || got != nil {
		t.Errorf("unknown constant: %v err=%v", got, err)
	}
	got, err = d.Match(ast.NewAtom("missing", ast.V("X")))
	if err != nil || got != nil {
		t.Errorf("unknown relation: %v err=%v", got, err)
	}
	if _, err := d.Match(ast.NewAtom("e", ast.V("X"))); err == nil {
		t.Error("arity mismatch should error")
	}
	neg := ast.NewAtom("e", ast.V("X"), ast.V("Y"))
	neg.Negated = true
	if _, err := d.Match(neg); err == nil {
		t.Error("negated pattern should error")
	}

	// A constant past position 31 lies outside the index mask, so Match
	// must check it itself.
	wide := make([]ast.Term, 40)
	for i := range wide {
		wide[i] = ast.C(fmt.Sprintf("c%d", i))
	}
	d.MustInsertAtom(ast.NewAtom("w", wide...))
	pattern := func(pos int, c string) ast.Atom {
		terms := make([]ast.Term, 40)
		for i := range terms {
			terms[i] = ast.V(fmt.Sprintf("X%d", i))
		}
		terms[pos] = ast.C(c)
		return ast.NewAtom("w", terms...)
	}
	for _, tc := range []struct {
		pos  int
		c    string
		want int
	}{{35, "c0", 0}, {35, "c35", 1}, {39, "c38", 0}, {39, "c39", 1}, {3, "c3", 1}} {
		got, err := d.Match(pattern(tc.pos, tc.c))
		if err != nil || len(got) != tc.want {
			t.Errorf("w with %s at position %d: %d matches, err %v; want %d", tc.c, tc.pos, len(got), err, tc.want)
		}
	}
}

func TestLoadCSVFileAndEstimatedBytes(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/edges.csv"
	if err := os.WriteFile(path, []byte("a,b\nb,c\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d := db.NewDatabase()
	n, err := d.LoadCSVFile("edge", 2, path, false)
	if err != nil || n != 2 {
		t.Fatalf("LoadCSVFile: n=%d err=%v", n, err)
	}
	rel, _ := d.Lookup("edge")
	if rel.EstimatedBytes() <= 0 {
		t.Error("EstimatedBytes should be positive")
	}
	if _, err := d.LoadCSVFile("edge", 2, dir+"/missing.csv", false); err == nil {
		t.Error("missing CSV should error")
	}
}

func TestEnsureRelationErrors(t *testing.T) {
	d := db.NewDatabase()
	rel, err := d.EnsureRelation("p", 2)
	if err != nil || rel == nil {
		t.Fatalf("EnsureRelation fresh: %v", err)
	}
	again, err := d.EnsureRelation("p", 2)
	if err != nil || again != rel {
		t.Fatalf("EnsureRelation same arity must return the same relation (err %v)", err)
	}
	if _, err := d.EnsureRelation("p", 3); err == nil {
		t.Fatal("EnsureRelation arity clash: want error, got nil")
	} else if !strings.Contains(err.Error(), "p") || !strings.Contains(err.Error(), "2") {
		t.Errorf("arity-clash error %q should name the predicate and existing arity", err)
	}
}

func TestAttachSharedErrors(t *testing.T) {
	d := db.NewDatabase()
	d.MustInsertAtom(ast.NewAtom("e", ast.C("a"), ast.C("b")))
	rel, _ := d.Lookup("e")

	c := d.CloneSchema()
	if err := c.AttachShared(rel); err != nil {
		t.Fatalf("AttachShared: %v", err)
	}
	if err := c.AttachShared(rel); err != nil {
		t.Fatalf("AttachShared same relation twice must be a no-op: %v", err)
	}
	if err := c.AttachShared(db.NewRelation("e", 2)); err == nil {
		t.Fatal("AttachShared different relation under a taken name: want error")
	}
}

func TestInvariantPanicMessage(t *testing.T) {
	d := db.NewDatabase()
	d.Relation("p", 2)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("arity clash via Relation should panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "db: invariant violated") {
			t.Errorf("panic %v should carry the invariant prefix", r)
		}
	}()
	d.Relation("p", 3)
}

// fillTable adds keys[i] under id i to tab, hashed with HashIDs, and
// returns how many of them tab already held.
func fillTable(tab *db.IDTable, keys []int32) int {
	seen := 0
	for i, k := range keys {
		if _, ok := tab.FindOrAdd(db.HashIDs(5, []int32{k}), int32(i), func(id int32) bool { return keys[id] == k }); ok {
			seen++
		}
	}
	return seen
}

// TestIDTableReserve checks that a table reserved for n ids takes n adds
// with the one allocation Reserve makes (an unreserved one grows several
// times), finds every id after them, and that HashIDs hashes ids as
// Tuple.Hash hashes the same symbols.
func TestIDTableReserve(t *testing.T) {
	keys := make([]int32, 1000)
	for i := range keys {
		keys[i] = int32(i*7919 + 1)
	}
	reserved := testing.AllocsPerRun(5, func() {
		var tab db.IDTable
		tab.Reserve(len(keys))
		fillTable(&tab, keys)
	})
	grown := testing.AllocsPerRun(5, func() {
		var tab db.IDTable
		fillTable(&tab, keys)
	})
	if reserved != 1 || grown <= 1 {
		t.Errorf("%d adds allocate %.1f times after Reserve and %.1f times without; want 1 and more", len(keys), reserved, grown)
	}
	var tab db.IDTable
	tab.Reserve(len(keys))
	if seen := fillTable(&tab, keys); seen != 0 {
		t.Fatalf("%d of %d distinct keys found before they were added", seen, len(keys))
	}
	for i, k := range keys {
		if id, ok := tab.Find(db.HashIDs(5, []int32{k}), func(id int32) bool { return keys[id] == k }); !ok || id != int32(i) {
			t.Fatalf("Find(%d) = %d, %v; want %d, true", k, id, ok, i)
		}
	}
	if db.HashIDs(5, []db.Sym{3, 1, 4}) != (db.Tuple{3, 1, 4}).Hash(5) {
		t.Error("HashIDs and Tuple.Hash disagree on the same symbols")
	}
}
