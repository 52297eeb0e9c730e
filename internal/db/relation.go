package db

import "sync"

// TupleID identifies a tuple within a relation. Ids are dense and issued in
// insertion order, so the tuples added by one evaluation round form a
// contiguous id range — the property semi-naive evaluation relies on.
type TupleID int32

// Relation is an append-only set of tuples of a fixed arity with lazily
// created hash indexes over binding patterns.
//
// Concurrency: a relation that is not currently being inserted into may be
// read — including index-building LookupPattern and EnsureIndex calls —
// from multiple goroutines (the parallel Magic variants share edb
// relations across workers this way, and the parallel semi-naive engine
// has its workers scan relations concurrently; idxMu guards lazy index
// creation). Insert is single-writer and must not run concurrently with
// any reader or another Insert: the engine alternates read-only scan
// phases with a single-goroutine merge phase, with a happens-before edge
// between them. Callers that scan in parallel should EnsureIndex the
// binding patterns they will use up front, so the scan phase never takes
// the index-creation write lock.
type Relation struct {
	name   string
	arity  int
	tuples []Tuple
	byKey  map[string]TupleID

	// indexes maps a binding-pattern bitmask (bit i set = position i bound)
	// to a hash index from projected key to the ids of matching tuples.
	idxMu   sync.RWMutex
	indexes map[uint32]*patternIndex
}

type patternIndex struct {
	positions []int // sorted bound positions
	// slot maps a projected key to its bucket: the ids of the matching
	// tuples, ascending. Going through a slot lets a probe or an append to
	// an existing bucket look its key up without allocating; only a new
	// bucket stores a key string.
	slot    map[string]int32
	buckets [][]TupleID
}

// add appends id (the id of t) to its bucket.
func (idx *patternIndex) add(t Tuple, id TupleID) {
	var buf [keyBufLen]byte
	k := appendProjKey(buf[:0], t, idx.positions)
	if s, ok := idx.slot[string(k)]; ok {
		idx.buckets[s] = append(idx.buckets[s], id)
		return
	}
	idx.slot[string(k)] = int32(len(idx.buckets))
	idx.buckets = append(idx.buckets, []TupleID{id})
}

// NewRelation creates an empty relation.
func NewRelation(name string, arity int) *Relation {
	return &Relation{
		name:  name,
		arity: arity,
		byKey: make(map[string]TupleID),
	}
}

// Name returns the relation's predicate name.
func (r *Relation) Name() string { return r.name }

// Arity returns the relation's arity.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuple returns the tuple with the given id. The returned slice must not be
// modified.
func (r *Relation) Tuple(id TupleID) Tuple { return r.tuples[id] }

// Contains reports whether the relation holds t, and its id if so. The
// probe packs t's key on the stack and allocates nothing.
func (r *Relation) Contains(t Tuple) (TupleID, bool) {
	var buf [keyBufLen]byte
	id, ok := r.byKey[string(t.AppendKey(buf[:0]))]
	return id, ok
}

// Insert adds t if absent. It returns the tuple's id and whether it was
// newly added. The relation keeps its own copy of new tuples, so callers may
// reuse the argument slice. Finding t already present allocates nothing.
func (r *Relation) Insert(t Tuple) (TupleID, bool) {
	var buf [keyBufLen]byte
	key := t.AppendKey(buf[:0])
	if id, ok := r.byKey[string(key)]; ok {
		return id, false
	}
	id := TupleID(len(r.tuples))
	r.tuples = append(r.tuples, t.Clone())
	r.byKey[string(key)] = id
	// The write lock (not RLock: bucket appends mutate the index maps, and
	// the single-writer contract still allows a concurrent EnsureIndex from
	// a stale reader to be in flight) keeps index maintenance consistent
	// with lazy index creation.
	r.idxMu.Lock()
	for _, idx := range r.indexes {
		idx.add(r.tuples[id], id)
	}
	r.idxMu.Unlock()
	return id, true
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
	var buf [keyBufLen]byte
	if s, ok := idx.slot[string(appendProjKey(buf[:0], bound, idx.positions))]; ok {
		return idx.buckets[s], true
	}
	return nil, true
}

// EnsureIndex pre-builds the hash index for the given binding-pattern
// mask (a no-op for mask 0 or an existing index). The parallel engine
// calls this for every pattern a stratum's join plans will probe before
// fanning scans out over workers, so the read phase is lock-free: no
// worker ever takes the index-creation write lock mid-scan.
func (r *Relation) EnsureIndex(mask uint32) {
	if mask == 0 {
		return
	}
	r.index(mask)
}

func (r *Relation) index(mask uint32) *patternIndex {
	r.idxMu.RLock()
	idx, ok := r.indexes[mask]
	r.idxMu.RUnlock()
	if ok {
		return idx
	}
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	if r.indexes == nil {
		r.indexes = make(map[uint32]*patternIndex)
	}
	if idx, ok := r.indexes[mask]; ok {
		return idx
	}
	var positions []int
	for i := 0; i < r.arity; i++ {
		if mask&(1<<uint(i)) != 0 {
			positions = append(positions, i)
		}
	}
	idx = &patternIndex{positions: positions, slot: make(map[string]int32)}
	for id, t := range r.tuples {
		idx.add(t, TupleID(id))
	}
	r.indexes[mask] = idx
	return idx
}

// EstimatedBytes returns a rough in-memory size of the relation's tuple
// store (excluding indexes), used by the experiment harness to report
// memory consumption.
func (r *Relation) EstimatedBytes() int64 {
	return int64(len(r.tuples)) * int64(4*r.arity+16)
}
