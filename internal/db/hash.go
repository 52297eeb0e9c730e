package db

import (
	"math/bits"
	"math/rand/v2"
)

// hashSeed and hashMul key every hash of this package. They are drawn once
// per process, so input the process does not trust (facts posted to
// cmserve) cannot be chosen to collide. Nothing observable depends on
// them: tuple ids, lookup results and their order follow insertion order,
// never the layout of a table.
var (
	hashSeed = rand.Uint64()
	hashMul  = rand.Uint64() | 1
)

// mix folds v into the running hash h: a 64×64→128-bit multiply by the
// secret odd constant, its halves xored (wyhash's "mum" step).
func mix(h, v uint64) uint64 {
	hi, lo := bits.Mul64(h^v, hashMul)
	return hi ^ lo
}

// Hash returns a hash of t salted with salt, for keying an IDTable. It is
// keyed once per process, so equal tuples hash alike within a process and
// no table layout carries over between processes.
func (t Tuple) Hash(salt uint64) uint64 { return HashIDs(salt, t) }

// HashIDs returns a hash of a sequence of int32-based ids (symbols, fact
// or node ids) salted with salt, for keying an IDTable over such
// sequences. Tuple.Hash is HashIDs over the tuple's symbols.
func HashIDs[T ~int32](salt uint64, ids []T) uint64 {
	h := mix(hashSeed, salt)
	for _, id := range ids {
		h = mix(h, uint64(uint32(id)))
	}
	return h
}

// hashAt hashes the symbols of t at positions, the key of a pattern index.
func hashAt(t Tuple, positions []int) uint64 {
	h := hashSeed
	for _, p := range positions {
		h = mix(h, uint64(uint32(t[p])))
	}
	return h
}

// IDTable is an open-addressing hash index of non-negative int32 ids
// (tuple ids, bucket numbers, graph node ids) that stores no keys: the
// caller hashes a key, and Find asks the caller whether a stored id holds
// it. Each slot keeps the low 32 bits of its id's hash beside the id, so
// a probe consults the caller only on a matching hash, and growing
// rehashes from the slots alone. Probes allocate nothing; the table
// doubles at half load, so n adds allocate O(log n) times. The zero value
// is an empty table. A table no goroutine is adding to may be read from
// several at once.
type IDTable struct {
	slots []uint64 // hash<<32 | id+1; 0 marks an empty slot
	n     int
}

// Find returns the id stored under hash h for which eq holds.
func (t *IDTable) Find(h uint64, eq func(id int32) bool) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	frag := h & 0xffffffff
	for i := frag & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return 0, false
		}
		if s>>32 == frag && eq(int32(uint32(s))-1) {
			return int32(uint32(s)) - 1, true
		}
	}
}

// FindOrAdd returns the id stored under hash h for which eq holds and
// true; if there is none, it stores id under h and returns id and false.
func (t *IDTable) FindOrAdd(h uint64, id int32, eq func(id int32) bool) (int32, bool) {
	if found, ok := t.Find(h, eq); ok {
		return found, true
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	t.put((h&0xffffffff)<<32 | uint64(uint32(id+1)))
	t.n++
	return id, false
}

// Reserve sizes an empty table so that its first n adds do not grow it.
func (t *IDTable) Reserve(n int) {
	if t.n > 0 || n <= 0 {
		return
	}
	size := 8
	for size < 2*n {
		size *= 2
	}
	t.slots = make([]uint64, size)
}

// grow doubles the table, placing every slot by its stored hash.
func (t *IDTable) grow() {
	old := t.slots
	t.slots = make([]uint64, max(2*len(old), 8))
	for _, s := range old {
		if s != 0 {
			t.put(s)
		}
	}
}

// put stores slot s in the first empty slot of its probe sequence.
func (t *IDTable) put(s uint64) {
	mask := uint64(len(t.slots) - 1)
	i := (s >> 32) & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}
