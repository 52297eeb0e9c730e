package db

// Tuple is a sequence of interned symbols. Tuples are immutable by
// convention: once inserted into a relation they must not be modified.
type Tuple []Sym

// Key packs the tuple into a string usable as a map key. The packing is
// 4 bytes per symbol, big-endian, which is injective for a fixed arity.
func (t Tuple) Key() string {
	var buf [keyBufLen]byte
	return string(t.AppendKey(buf[:0]))
}

// keyBufLen sizes the stack buffers keys are packed into: tuples up to
// arity 16 pack without a heap allocation.
const keyBufLen = 64

// AppendKey appends the Key packing of t to dst and returns the extended
// slice. Probing a string-keyed map with m[string(t.AppendKey(buf[:0]))]
// compiles without allocating, so a caller with a reusable or stack buffer
// pays for a key string only when it stores one.
func (t Tuple) AppendKey(dst []byte) []byte {
	for _, s := range t {
		dst = append(dst, byte(s>>24), byte(s>>16), byte(s>>8), byte(s))
	}
	return dst
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

// Clone returns a fresh copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// appendProjKey appends the packed symbols of t at the given positions
// (the binding-pattern index key) to dst; positions must be sorted.
func appendProjKey(dst []byte, t Tuple, positions []int) []byte {
	for _, p := range positions {
		s := t[p]
		dst = append(dst, byte(s>>24), byte(s>>16), byte(s>>8), byte(s))
	}
	return dst
}
