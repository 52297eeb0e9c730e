package db

// Tuple is a sequence of interned symbols. Tuples are immutable by
// convention: once inserted into a relation they must not be modified.
type Tuple []Sym

// Key packs the tuple into a string usable as a map key. The packing is
// 4 bytes per symbol, big-endian, which is injective for a fixed arity.
func (t Tuple) Key() string {
	var buf [64]byte // tuples up to arity 16 pack without a heap allocation
	dst := buf[:0]
	for _, s := range t {
		dst = append(dst, byte(s>>24), byte(s>>16), byte(s>>8), byte(s))
	}
	return string(dst)
}

// Equal reports element-wise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if t[i] != o[i] {
			return false
		}
	}
	return true
}
