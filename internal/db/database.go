package db

import (
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"sort"

	"contribmax/internal/ast"
)

// invariantf reports a violated internal invariant. It is the single
// escape hatch for conditions that public error-returning paths
// (EnsureRelation, AttachShared, InsertAtom) have already screened out:
// reaching it means a caller bypassed those paths with data it promised was
// valid, so there is no sensible recovery. Every panic in this package
// funnels through here.
func invariantf(format string, args ...any) {
	panic("db: invariant violated: " + fmt.Sprintf(format, args...))
}

// Database is a collection of named relations sharing one symbol table.
type Database struct {
	symbols   *SymbolTable
	relations map[string]*Relation
	order     []string // creation order, for deterministic iteration
}

// NewDatabase returns an empty database with a fresh symbol table.
func NewDatabase() *Database {
	return &Database{
		symbols:   NewSymbolTable(),
		relations: make(map[string]*Relation),
	}
}

// Symbols returns the database's symbol table.
func (d *Database) Symbols() *SymbolTable { return d.symbols }

// EnsureRelation returns the relation named pred, creating it with the
// given arity if absent. It returns an error if the relation exists with a
// different arity — the public, validating counterpart of Relation for
// callers handling untrusted programs or data files.
func (d *Database) EnsureRelation(pred string, arity int) (*Relation, error) {
	if r, ok := d.relations[pred]; ok {
		if r.arity != arity {
			return nil, fmt.Errorf("db: relation %s used with arities %d and %d", pred, r.arity, arity)
		}
		return r, nil
	}
	r := NewRelation(pred, arity)
	d.relations[pred] = r
	d.order = append(d.order, pred)
	return r, nil
}

// Relation returns the relation named pred, creating it with the given
// arity if absent. The caller vouches that pred is used with one arity
// (ast.Program.Validate or analysis.Analyze establish this for parsed
// programs); a mismatch is an invariant violation and panics. Callers that
// cannot promise this must use EnsureRelation.
func (d *Database) Relation(pred string, arity int) *Relation {
	r, err := d.EnsureRelation(pred, arity)
	if err != nil {
		invariantf("%v", err)
	}
	return r
}

// Lookup returns the relation named pred if present.
func (d *Database) Lookup(pred string) (*Relation, bool) {
	r, ok := d.relations[pred]
	return r, ok
}

// RelationNames returns all relation names in creation order.
func (d *Database) RelationNames() []string {
	out := make([]string, len(d.order))
	copy(out, d.order)
	return out
}

// InsertAtom interns and inserts a ground atom. It returns the relation,
// the tuple id and whether the tuple was newly added. It returns an error
// if the atom is not ground or its predicate is already registered with a
// different arity.
func (d *Database) InsertAtom(a ast.Atom) (*Relation, TupleID, bool, error) {
	t, err := d.InternAtom(a)
	if err != nil {
		return nil, 0, false, err
	}
	rel, err := d.EnsureRelation(a.Predicate, a.Arity())
	if err != nil {
		return nil, 0, false, err
	}
	id, added := rel.Insert(t)
	return rel, id, added, nil
}

// InsertAll inserts ground atoms, ignoring duplicates: the one loader for
// facts that come from outside the program (fact files, requests, a
// session's input). It returns the number of newly added facts and the
// first error, a non-ground atom or an arity clash; the facts before it
// stay inserted.
func (d *Database) InsertAll(facts []ast.Atom) (added int, err error) {
	for _, f := range facts {
		_, _, fresh, err := d.InsertAtom(f)
		if err != nil {
			return added, err
		}
		if fresh {
			added++
		}
	}
	return added, nil
}

// MustInsertAtom is InsertAtom for callers that know the atom is ground and
// arity-consistent (e.g. generated workloads); a violation is an invariant
// failure and panics.
func (d *Database) MustInsertAtom(a ast.Atom) (TupleID, bool) {
	_, id, added, err := d.InsertAtom(a)
	if err != nil {
		invariantf("%v", err)
	}
	return id, added
}

// InternAtom interns the constants of a ground atom into a tuple without
// inserting it anywhere.
func (d *Database) InternAtom(a ast.Atom) (Tuple, error) {
	t := make(Tuple, len(a.Terms))
	for i, term := range a.Terms {
		if !term.IsConst() {
			return nil, fmt.Errorf("db: atom %s is not ground", a)
		}
		t[i] = d.symbols.Intern(term.Name)
	}
	return t, nil
}

// AtomOf reconstructs the ground atom for a tuple of a relation.
func (d *Database) AtomOf(rel *Relation, id TupleID) ast.Atom {
	t := rel.Tuple(id)
	terms := make([]ast.Term, len(t))
	for i, s := range t {
		terms[i] = ast.C(d.symbols.Name(s))
	}
	return ast.Atom{Predicate: rel.Name(), Terms: terms}
}

// Facts returns all tuples of pred as ground atoms, in insertion order. It
// returns nil if the relation does not exist.
func (d *Database) Facts(pred string) []ast.Atom {
	rel, ok := d.relations[pred]
	if !ok {
		return nil
	}
	out := make([]ast.Atom, rel.Len())
	for i := 0; i < rel.Len(); i++ {
		out[i] = d.AtomOf(rel, TupleID(i))
	}
	return out
}

// TotalTuples returns the number of tuples across all relations.
func (d *Database) TotalTuples() int {
	n := 0
	for _, r := range d.relations {
		n += r.Len()
	}
	return n
}

// CloneSchema returns a new empty database sharing this database's symbol
// table. Sharing the table keeps symbol ids stable across the original
// database and per-query scratch databases built by the Magic-Sets
// algorithms, so tuples can be compared across databases by value.
func (d *Database) CloneSchema() *Database {
	return &Database{
		symbols:   d.symbols,
		relations: make(map[string]*Relation),
	}
}

// Scratch returns a database for one evaluation over d's data: a
// CloneSchema with the named relations of d attached by reference, in the
// order given (names d does not hold are skipped). Derived facts land in
// the scratch database, so d itself is never mutated.
func (d *Database) Scratch(names []string) *Database {
	scratch := d.CloneSchema()
	for _, name := range names {
		if rel, ok := d.Lookup(name); ok {
			scratch.Attach(rel)
		}
	}
	return scratch
}

// AttachShared shares an existing relation (typically an edb relation of
// another database with the same symbol table) under its own name. The
// relation is shared by reference: the Magic-Sets algorithms attach the
// original edb relations to per-query scratch databases so that edb data
// and its lazily built indexes are reused across queries. It returns an
// error if a different relation is already registered under the name.
func (d *Database) AttachShared(rel *Relation) error {
	if prev, ok := d.relations[rel.Name()]; ok {
		if prev != rel {
			return fmt.Errorf("db: relation %s already attached", rel.Name())
		}
		return nil
	}
	d.relations[rel.Name()] = rel
	d.order = append(d.order, rel.Name())
	return nil
}

// Attach is AttachShared for callers that know the name is free or holds
// the same relation (the Magic-Sets scratch databases, which attach each
// edb relation exactly once); a clash is an invariant failure and panics.
func (d *Database) Attach(rel *Relation) {
	if err := d.AttachShared(rel); err != nil {
		invariantf("%v", err)
	}
}

// Fingerprint returns a content identity of the database: an FNV-1a hash
// over every relation (in creation order) and every tuple (in insertion
// order), with constants rendered by name so two databases built by the
// same insertion sequence — even with different symbol tables — agree.
// Creation and insertion order participate deliberately: downstream
// candidate ids are positional, so "same content, different build order"
// must be a different identity. Cost is one pass over every term; callers
// that already know a cheaper identity (e.g. a hash of the fact file the
// database was loaded from) should use that instead.
func (d *Database) Fingerprint() string {
	h := fnv.New64a()
	for _, name := range d.order {
		rel := d.relations[name]
		fmt.Fprintf(h, "%d:%s/%d#%d;", len(name), name, rel.arity, rel.Len())
		for i := 0; i < rel.Len(); i++ {
			for _, s := range rel.Tuple(TupleID(i)) {
				n := d.symbols.Name(s)
				fmt.Fprintf(h, "%d:%s,", len(n), n)
			}
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Stats returns a deterministic, human-readable per-relation tuple count
// summary, for debugging and the wddump tool.
func (d *Database) Stats() string {
	names := make([]string, 0, len(d.relations))
	for n := range d.relations {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, n := range names {
		s += fmt.Sprintf("%s/%d: %d tuples\n", n, d.relations[n].arity, d.relations[n].Len())
	}
	return s
}
