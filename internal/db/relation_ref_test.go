package db_test

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"contribmax/internal/db"
)

// refRelation is the reference a Relation is checked against: a map for
// membership, a slice for ids, and indexes recomputed by scanning.
type refRelation struct {
	arity  int
	ids    map[string]db.TupleID
	tuples []db.Tuple
}

func (ref *refRelation) insert(t db.Tuple) (db.TupleID, bool) {
	if id, ok := ref.ids[fmt.Sprint(t)]; ok {
		return id, false
	}
	id := db.TupleID(len(ref.tuples))
	ref.ids[fmt.Sprint(t)] = id
	ref.tuples = append(ref.tuples, slices.Clone(t))
	return id, true
}

// project renders the symbols of t at the positions mask binds.
func project(t db.Tuple, mask uint32) string {
	var out []db.Sym
	for p, s := range t {
		if mask&(1<<uint(p)) != 0 {
			out = append(out, s)
		}
	}
	return fmt.Sprint(out)
}

// checkAgainst compares every read path of r with ref: Len, Tuple and
// Contains of every tuple, Contains of absent tuples, and, when
// withIndexes is set, LookupPattern of every mask on every projection
// present and on an absent one.
func (ref *refRelation) checkAgainst(t *testing.T, r *db.Relation, absent db.Sym, withIndexes bool) {
	t.Helper()
	if r.Len() != len(ref.tuples) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(ref.tuples))
	}
	for id, want := range ref.tuples {
		if got := r.Tuple(db.TupleID(id)); !got.Equal(want) || cap(got) != len(got) {
			t.Fatalf("Tuple(%d) = %v (cap %d), want %v", id, got, cap(got), want)
		}
		if got, ok := r.Contains(want); !ok || got != db.TupleID(id) {
			t.Fatalf("Contains(%v) = %d, %v; want %d", want, got, ok, id)
		}
	}
	for p := 0; p < ref.arity; p++ {
		miss := slices.Clone(ref.tuples[0])
		miss[p] = absent
		if _, ok := r.Contains(miss); ok {
			t.Fatalf("Contains(%v) hit an absent tuple", miss)
		}
	}
	if !withIndexes {
		return
	}
	for mask := uint32(1); mask < 1<<uint(ref.arity); mask++ {
		want := map[string][]db.TupleID{}
		probes := map[string]db.Tuple{}
		for id, tu := range ref.tuples {
			k := project(tu, mask)
			want[k] = append(want[k], db.TupleID(id))
			probes[k] = tu
		}
		for k, probe := range probes {
			got, ok := r.LookupPattern(mask, probe)
			if !ok || !slices.Equal(got, want[k]) {
				t.Fatalf("LookupPattern(%b, %v) = %v, %v; want %v", mask, probe, got, ok, want[k])
			}
		}
		miss := slices.Clone(ref.tuples[0])
		for p := range miss {
			miss[p] = absent
		}
		if got, ok := r.LookupPattern(mask, miss); !ok || got != nil {
			t.Fatalf("LookupPattern(%b, %v) = %v, %v; want nil, true", mask, miss, got, ok)
		}
	}
}

// TestRelationMatchesReference drives the flat relation through thousands
// of inserts per arity from 0 to 5, over alphabets small enough that
// duplicates recur, the dedup and index tables double several times and
// many tuples share each projection, and compares every read path with a
// map-and-scan reference after each batch. Indexes are created either
// before the first insert (so Insert fills them) or only after all but the
// last batch (so creation scans existing tuples and Insert maintains them).
func TestRelationMatchesReference(t *testing.T) {
	const batches, batchLen = 8, 500
	for arity := 0; arity <= 5; arity++ {
		alphabet := 8
		if arity > 0 {
			alphabet = max(alphabet, int(math.Ceil(math.Pow(batches*batchLen, 1/float64(arity)))))
		}
		for _, early := range []bool{true, false} {
			t.Run(fmt.Sprintf("arity%d/early=%t", arity, early), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(uint64(arity), 11))
				r := db.NewRelation("r", arity)
				ref := &refRelation{arity: arity, ids: map[string]db.TupleID{}}
				if early {
					for mask := uint32(1); mask < 1<<uint(arity); mask++ {
						r.LookupPattern(mask, make(db.Tuple, arity))
					}
				}
				tuple := make(db.Tuple, arity)
				for b := 0; b < batches; b++ {
					for i := 0; i < batchLen; i++ {
						for p := range tuple {
							tuple[p] = db.Sym(rng.IntN(alphabet))
						}
						wantID, wantAdded := ref.insert(tuple)
						if id, added := r.Insert(tuple); id != wantID || added != wantAdded {
							t.Fatalf("batch %d: Insert(%v) = %d, %v; want %d, %v", b, tuple, id, added, wantID, wantAdded)
						}
					}
					ref.checkAgainst(t, r, db.Sym(alphabet), early || b >= batches-2)
				}
			})
		}
	}
}

// TestRelationInsertAllocsAmortized pins flat storage's allocation bound:
// n fresh inserts into a relation without indexes allocate O(log n)
// objects (the arena and the dedup table double), and with a pattern
// index of eight-id buckets, far fewer than one per tuple.
func TestRelationInsertAllocsAmortized(t *testing.T) {
	for _, n := range []int{1 << 12, 1 << 16} {
		logN := float64(bits.Len(uint(n)))
		plain := testing.AllocsPerRun(1, func() {
			r := db.NewRelation("r", 2)
			for i := 0; i < n; i++ {
				r.Insert(db.Tuple{db.Sym(i), db.Sym(i >> 3)})
			}
		})
		if plain > 3*logN {
			t.Errorf("%d inserts allocate %.0f objects, want at most %.0f", n, plain, 3*logN)
		}
		indexed := testing.AllocsPerRun(1, func() {
			r := db.NewRelation("r", 2)
			r.LookupPattern(0b10, db.Tuple{0, 0})
			for i := 0; i < n; i++ {
				r.Insert(db.Tuple{db.Sym(i), db.Sym(i >> 3)})
			}
		})
		if limit := float64(n) / 32; indexed > limit {
			t.Errorf("%d inserts under an index allocate %.0f objects, want under %.0f", n, indexed, limit)
		}
	}
}
