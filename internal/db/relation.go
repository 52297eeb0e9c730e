package db

import (
	"sync"
	"sync/atomic"
)

// TupleID identifies a tuple within a relation. Ids are dense and issued in
// insertion order, so the tuples added by one evaluation round form a
// contiguous id range — the property semi-naive evaluation relies on.
type TupleID int32

// Relation is an append-only set of tuples of a fixed arity with lazily
// created hash indexes over binding patterns.
//
// Storage is flat: the symbols of every tuple lie back to back in one
// arena, tuple id i at [i·arity, (i+1)·arity), and the dedup table and the
// pattern indexes hold tuple ids hashed over the arena. So a relation
// keeps no key strings and no object per tuple, and n inserts allocate
// O(log n) times.
//
// Concurrency: a relation that is not currently being inserted into may be
// read — including index-building LookupPattern calls — from multiple
// goroutines (the parallel Magic variants share edb relations across RR
// workers this way; idxMu serializes lazy index creation, which publishes
// each new index list atomically). Insert is single-writer and must not
// run concurrently with any reader or another Insert.
type Relation struct {
	name  string
	arity int
	n     int     // tuple count (the arena cannot tell it at arity 0)
	syms  []Sym   // the arena
	ids   IDTable // every tuple id, hashed over its symbols

	idxMu   sync.Mutex
	indexes atomic.Pointer[[]*patternIndex]
}

// patternIndex maps the symbols a binding pattern projects out of a tuple
// to the ids of the tuples sharing them.
type patternIndex struct {
	mask      uint32 // bit i set = position i bound
	positions []int  // the bound positions, ascending
	// keys holds bucket numbers, hashed over the projected symbols; a
	// bucket's projection is that of its first tuple.
	keys    IDTable
	buckets [][]TupleID // ascending ids per projection
	slab    []TupleID   // room small buckets are carved from
}

const (
	// Slabs start at minSlab ids, so an index over a handful of tuples
	// (a Magic scratch relation) stays small, and double up to maxSlab.
	minSlab, maxSlab = 16, 1024
	// slabBucketCap is the largest bucket capacity carved from a slab:
	// most buckets of a pattern index stay this small, and carving them
	// saves an allocation per bucket.
	slabBucketCap = 8
)

// add files tuple id of r under its projection.
func (idx *patternIndex) add(r *Relation, id TupleID) {
	t := r.Tuple(id)
	b, found := idx.keys.FindOrAdd(hashAt(t, idx.positions), int32(len(idx.buckets)), idx.matches(r, t))
	if found {
		idx.buckets[b] = idx.push(idx.buckets[b], id)
	} else {
		idx.buckets = append(idx.buckets, idx.push(nil, id))
	}
}

// matches returns the test of whether bucket b's projection equals that of
// t.
func (idx *patternIndex) matches(r *Relation, t Tuple) func(b int32) bool {
	return func(b int32) bool {
		first := r.Tuple(idx.buckets[b][0])
		for _, p := range idx.positions {
			if first[p] != t[p] {
				return false
			}
		}
		return true
	}
}

// push appends id to bucket. A bucket grows inside the index's slabs until
// its capacity reaches slabBucketCap and by append after that. A bucket
// that moves leaves its old ids in place, so a slice LookupPattern
// returned before stays valid while inserts continue.
func (idx *patternIndex) push(bucket []TupleID, id TupleID) []TupleID {
	if len(bucket) < cap(bucket) || cap(bucket) >= slabBucketCap {
		return append(bucket, id)
	}
	c := max(2*cap(bucket), 1)
	n := len(idx.slab)
	if cap(idx.slab)-n < c {
		idx.slab, n = make([]TupleID, 0, min(max(2*cap(idx.slab), minSlab), maxSlab)), 0
	}
	idx.slab = idx.slab[:n+c]
	return append(append(idx.slab[n:n:n+c], bucket...), id)
}

// NewRelation creates an empty relation.
func NewRelation(name string, arity int) *Relation {
	return &Relation{name: name, arity: arity}
}

// Name returns the relation's predicate name.
func (r *Relation) Name() string { return r.name }

// Arity returns the relation's arity.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.n }

// Tuple returns the tuple with the given id: a view of the arena, capped
// so that appending to it copies. The returned slice must not be modified.
func (r *Relation) Tuple(id TupleID) Tuple {
	i, a := int(id)*r.arity, r.arity
	s := r.syms[:len(r.syms):len(r.syms)] // bound the view by the tuples stored
	return s[i : i+a : i+a]
}

// same returns the test of whether tuple id equals t.
func (r *Relation) same(t Tuple) func(id int32) bool {
	return func(id int32) bool { return r.Tuple(TupleID(id)).Equal(t) }
}

// Contains reports whether the relation holds t, and its id if so. The
// probe allocates nothing.
func (r *Relation) Contains(t Tuple) (TupleID, bool) {
	id, ok := r.ids.Find(t.Hash(0), r.same(t))
	return TupleID(id), ok
}

// Insert adds t if absent. It returns the tuple's id and whether it was
// newly added. The relation copies new tuples into its arena, so callers
// may reuse the argument slice. Finding t already present allocates
// nothing. A tuple whose length is not the relation's arity is an
// invariant violation and panics.
func (r *Relation) Insert(t Tuple) (TupleID, bool) {
	if len(t) != r.arity {
		invariantf("tuple of length %d inserted into %s/%d", len(t), r.name, r.arity)
	}
	id, found := r.ids.FindOrAdd(t.Hash(0), int32(r.n), r.same(t))
	if found {
		return TupleID(id), false
	}
	r.syms = append(r.syms, t...)
	r.n++
	// Readers never run beside Insert, so index maintenance takes no lock.
	if ix := r.indexes.Load(); ix != nil {
		for _, idx := range *ix {
			idx.add(r, TupleID(id))
		}
	}
	return TupleID(id), true
}

// LookupPattern returns the ids of tuples matching the given partial
// binding: mask has bit i set iff position i is bound, and bound holds the
// required symbol for every bound position (unbound positions are ignored).
// With an empty mask it returns nil and false=all, signalled by ok=false; use
// Len and Tuple to scan in that case.
//
// The first call with a given mask builds the index (O(n)); subsequent calls
// are O(1) plus output. Returned slices are internal and must not be
// modified; they are ordered by ascending id.
func (r *Relation) LookupPattern(mask uint32, bound Tuple) (ids []TupleID, ok bool) {
	if mask == 0 {
		return nil, false
	}
	idx := r.index(mask)
	if b, ok := idx.keys.Find(hashAt(bound, idx.positions), idx.matches(r, bound)); ok {
		return idx.buckets[b], true
	}
	return nil, true
}

// index returns the pattern index of mask, building it on first use.
func (r *Relation) index(mask uint32) *patternIndex {
	if idx := r.findIndex(mask); idx != nil {
		return idx
	}
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	if idx := r.findIndex(mask); idx != nil {
		return idx
	}
	idx := &patternIndex{mask: mask}
	for i := 0; i < r.arity; i++ {
		if mask&(1<<uint(i)) != 0 {
			idx.positions = append(idx.positions, i)
		}
	}
	for id := 0; id < r.n; id++ {
		idx.add(r, TupleID(id))
	}
	var list []*patternIndex
	if ix := r.indexes.Load(); ix != nil {
		list = append(list, *ix...)
	}
	list = append(list, idx)
	r.indexes.Store(&list)
	return idx
}

// findIndex returns the published index of mask, nil if there is none.
func (r *Relation) findIndex(mask uint32) *patternIndex {
	if ix := r.indexes.Load(); ix != nil {
		for _, idx := range *ix {
			if idx.mask == mask {
				return idx
			}
		}
	}
	return nil
}

// EstimatedBytes returns a rough in-memory size of the relation's tuple
// store (excluding indexes), used by the experiment harness to report
// memory consumption.
func (r *Relation) EstimatedBytes() int64 {
	return int64(r.n) * int64(4*r.arity+16)
}
