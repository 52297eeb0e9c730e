// Package db provides the in-memory database substrate: a symbol table
// interning constants to dense ids, tuples of interned symbols, relations
// with lazily built hash indexes, and a database mapping predicate names to
// relations.
//
// The representation is optimized for the access patterns of semi-naive
// datalog evaluation: append-only relations with insertion-ordered tuple
// ids (so "the delta of iteration i" is an id range), and per-binding-
// pattern hash indexes for sideways information passing joins. Storage is
// flat: a relation keeps its tuples' symbols in one arena, and its dedup
// table and pattern indexes (IDTable) hold tuple ids hashed over that
// arena, so it stores no key strings and no object per tuple.
package db

// Sym is an interned constant symbol. Symbols are dense, starting at 0, in
// interning order.
type Sym int32

// SymbolTable interns constant names to dense Sym ids. The zero value is
// ready to use. SymbolTable is not safe for concurrent mutation.
type SymbolTable struct {
	names []string
	ids   map[string]Sym
}

// NewSymbolTable returns an empty symbol table.
func NewSymbolTable() *SymbolTable {
	return &SymbolTable{ids: make(map[string]Sym)}
}

// Intern returns the id for name, assigning a fresh one on first use.
func (st *SymbolTable) Intern(name string) Sym {
	if st.ids == nil {
		st.ids = make(map[string]Sym)
	}
	if id, ok := st.ids[name]; ok {
		return id
	}
	id := Sym(len(st.names))
	st.names = append(st.names, name)
	st.ids[name] = id
	return id
}

// Lookup returns the id for name if it has been interned.
func (st *SymbolTable) Lookup(name string) (Sym, bool) {
	id, ok := st.ids[name]
	return id, ok
}

// Name returns the name of an interned symbol. It panics on an id that was
// never issued, which always indicates a programming error.
func (st *SymbolTable) Name(id Sym) string {
	return st.names[id]
}

// Len returns the number of interned symbols.
func (st *SymbolTable) Len() int { return len(st.names) }
