package db_test

import (
	"fmt"
	"sync"
	"testing"

	"contribmax/internal/db"
)

// raceRelation builds a 3-ary relation with enough tuples that lazy index
// construction does real work while racing readers are in flight.
func raceRelation(t *testing.T) *db.Relation {
	t.Helper()
	d := db.NewDatabase()
	rel, err := d.EnsureRelation("r", 3)
	if err != nil {
		t.Fatal(err)
	}
	tuple := make(db.Tuple, 3)
	for i := 0; i < 64; i++ {
		for j := 0; j < 8; j++ {
			tuple[0] = d.Symbols().Intern(fmt.Sprintf("a%d", i%16))
			tuple[1] = d.Symbols().Intern(fmt.Sprintf("b%d", j))
			tuple[2] = d.Symbols().Intern(fmt.Sprintf("c%d", (i+j)%8))
			rel.Insert(tuple)
		}
	}
	return rel
}

// TestRelationConcurrentReaders pins the concurrent-reader contract the
// parallel Magic variants rely on: many goroutines may call LookupPattern —
// including first-touch calls on the same fresh mask, which trigger the
// lazy index build — plus Tuple/Contains/Len, with no external locking.
// Run under -race (make race covers internal/db).
func TestRelationConcurrentReaders(t *testing.T) {
	rel := raceRelation(t)
	bound := make(db.Tuple, 3)
	copy(bound, rel.Tuple(0))

	const readers = 16
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lookup := make(db.Tuple, 3)
			copy(lookup, bound)
			// Every goroutine touches every mask, so several race to build
			// the same index on first touch.
			for round := 0; round < 50; round++ {
				for mask := uint32(1); mask < 1<<3; mask++ {
					ids, ok := rel.LookupPattern(mask, lookup)
					if !ok {
						t.Errorf("mask %b: expected index path", mask)
						return
					}
					for _, id := range ids {
						tu := rel.Tuple(id)
						if _, present := rel.Contains(tu); !present {
							t.Errorf("tuple %d not found by Contains", id)
							return
						}
					}
				}
				if rel.Len() == 0 {
					t.Error("relation emptied under readers")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRelationEnsureIndexThenPhasedInserts pins the single-writer
// contract across phases: indexes are built up front by LookupPattern,
// then rounds alternate a single-goroutine insert phase with a read-only
// parallel scan phase (WaitGroup joins provide the happens-before edges).
// Readers must observe a consistent prefix in every round.
func TestRelationEnsureIndexThenPhasedInserts(t *testing.T) {
	d := db.NewDatabase()
	rel, err := d.EnsureRelation("s", 2)
	if err != nil {
		t.Fatal(err)
	}
	for mask := uint32(1); mask < 1<<2; mask++ {
		rel.LookupPattern(mask, db.Tuple{0, 0}) // builds the index
	}
	key := d.Symbols().Intern("k")
	tuple := make(db.Tuple, 2)
	for round := 0; round < 20; round++ {
		// Insert phase: single writer.
		for i := 0; i < 10; i++ {
			tuple[0] = key
			tuple[1] = d.Symbols().Intern(fmt.Sprintf("v%d_%d", round, i))
			rel.Insert(tuple)
		}
		want := rel.Len()
		// Scan phase: parallel readers over the frozen prefix.
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				lookup := db.Tuple{key, 0}
				ids, ok := rel.LookupPattern(1, lookup) // position 0 bound
				if !ok || len(ids) != want {
					t.Errorf("round %d: got %d indexed ids, want %d", round, len(ids), want)
				}
			}()
		}
		wg.Wait()
	}
}
