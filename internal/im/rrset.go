// Package im implements the Influence Maximization machinery the CM
// algorithms are built on: storage for Reverse Reachable (RR) sets, the
// greedy maximum-coverage selection of the RIS framework, and the choice of
// the number of RR sets to generate (θ).
//
// The targeted-IM adjustment of Section IV-A — seeds restricted to T1 and
// RR roots drawn from T2 — is realized by the callers: they generate RR
// sets rooted at T2 tuples and filter members to T1 candidates before
// adding them here.
package im

// CandidateID indexes the candidate universe (the set T1). Candidates are
// dense ids assigned by the caller.
type CandidateID int32

// RRCollection accumulates RR sets over a fixed candidate universe.
//
// Storage is arena-backed: all members live in one growing flat buffer and
// each set is an offset range into it, so Add is an append (no per-set
// allocation) and Set is a subslice. Finalize lays out the memberOf
// inverted index (candidate -> containing sets) in the same CSR form; the
// index is built once and shared by Greedy, GreedyPartition and
// CoverageOf. Adding sets after Finalize is legal (IMM appends a batch of
// RR sets after each round's greedy) — the index is rebuilt lazily on next
// use.
//
// A collection is not safe for concurrent use; the CM pipeline fills it
// from one goroutine after the parallel generation phase joins.
type RRCollection struct {
	numCandidates int
	members       []CandidateID // arena: all sets, concatenated
	setOff        []int32       // setOff[i]..setOff[i+1] bounds set i
	totalMembers  int64

	// memberOf inverted index in CSR form, built by Finalize: candidate c
	// is a member of sets memberOf[memberOfOff[c]:memberOfOff[c+1]].
	// indexedSets records how many sets the index covers; it goes stale
	// (and is rebuilt on demand) when sets are added afterwards.
	memberOf    []int32
	memberOfOff []int32
	indexedSets int

	// Epoch-stamped scratch for CoverageOf (same trick as wdgraph.Walker):
	// seedMark marks seed candidates, setMark marks covered sets, so
	// repeated coverage queries allocate nothing in steady state.
	seedMark  []int32
	setMark   []int32
	markEpoch int32
}

// NewRRCollection returns an empty collection over numCandidates
// candidates.
func NewRRCollection(numCandidates int) *RRCollection {
	return &RRCollection{numCandidates: numCandidates, setOff: []int32{0}}
}

// Reserve pre-sizes the arena for numSets additional RR sets totalling
// totalMembers members, so the subsequent Adds grow nothing.
func (c *RRCollection) Reserve(numSets int, totalMembers int64) {
	if need := len(c.setOff) + numSets; need > cap(c.setOff) {
		grown := make([]int32, len(c.setOff), need)
		copy(grown, c.setOff)
		c.setOff = grown
	}
	if need := int64(len(c.members)) + totalMembers; need > int64(cap(c.members)) {
		grown := make([]CandidateID, len(c.members), need)
		copy(grown, c.members)
		c.members = grown
	}
}

// Add appends one RR set. Empty sets are legal (an RR walk that reached no
// candidate) and count toward the total; they can never be covered, which
// correctly lowers the coverage-based contribution estimate. Add copies
// members into the arena, so callers may reuse their buffer.
func (c *RRCollection) Add(members []CandidateID) {
	c.members = append(c.members, members...)
	c.setOff = append(c.setOff, int32(len(c.members)))
	c.totalMembers += int64(len(members))
}

// Len returns the number of RR sets added.
func (c *RRCollection) Len() int { return len(c.setOff) - 1 }

// NumCandidates returns the size of the candidate universe.
func (c *RRCollection) NumCandidates() int { return c.numCandidates }

// TotalMembers returns the summed size of all RR sets.
func (c *RRCollection) TotalMembers() int64 { return c.totalMembers }

// ArenaBytes returns the resident size of the member arena and offset
// array — the quantity surfaced as the rr.bytes_arena metric.
func (c *RRCollection) ArenaBytes() int64 {
	const candSize, offSize = 4, 4
	return int64(cap(c.members))*candSize + int64(cap(c.setOff))*offSize
}

// MemoryBytes returns the resident size of the collection including the
// memberOf index and scratch — the quantity a cache charges an entry for.
func (c *RRCollection) MemoryBytes() int64 {
	const i32 = 4
	return c.ArenaBytes() +
		int64(cap(c.memberOf))*i32 + int64(cap(c.memberOfOff))*i32 +
		int64(cap(c.seedMark))*i32 + int64(cap(c.setMark))*i32
}

// Snapshot returns a read-only view of a finalized collection: it shares
// the member arena, offsets, and memberOf index (all immutable once no
// further Adds happen) but owns fresh coverage scratch, so any number of
// snapshots can serve concurrent solves without aliasing mutable state.
// The receiver is finalized if it was not already; neither the receiver
// nor any snapshot may receive further Adds afterwards (the shared index
// would go stale for all of them).
func (c *RRCollection) Snapshot() *RRCollection {
	c.Finalize()
	return &RRCollection{
		numCandidates: c.numCandidates,
		members:       c.members,
		setOff:        c.setOff,
		totalMembers:  c.totalMembers,
		memberOf:      c.memberOf,
		memberOfOff:   c.memberOfOff,
		indexedSets:   c.indexedSets,
	}
}

// Set returns the i-th RR set as a subslice of the arena; do not modify.
func (c *RRCollection) Set(i int) []CandidateID {
	return c.members[c.setOff[i]:c.setOff[i+1]]
}

// Finalize builds the memberOf inverted index (candidate -> set ids, CSR
// layout) covering every set added so far. All selection and coverage
// queries share this one index; calling Finalize explicitly after the
// generation phase makes the build cost visible, but it is optional —
// queries finalize lazily. Idempotent until more sets are added.
func (c *RRCollection) Finalize() {
	if c.indexedSets == c.Len() && c.memberOfOff != nil {
		return
	}
	n := c.numCandidates
	if c.memberOfOff == nil {
		c.memberOfOff = make([]int32, n+1)
	} else {
		clear(c.memberOfOff)
	}
	deg := c.memberOfOff[1:] // count degrees shifted by one, prefix-sum in place
	for _, m := range c.members {
		deg[m]++
	}
	for i := 1; i < n; i++ {
		deg[i] += deg[i-1]
	}
	if int64(cap(c.memberOf)) >= c.totalMembers {
		c.memberOf = c.memberOf[:c.totalMembers]
	} else {
		c.memberOf = make([]int32, c.totalMembers)
	}
	cursor := make([]int32, n)
	copy(cursor, c.memberOfOff[:n])
	for i := 0; i < c.Len(); i++ {
		for _, m := range c.Set(i) {
			c.memberOf[cursor[m]] = int32(i)
			cursor[m]++
		}
	}
	c.indexedSets = c.Len()
}

// MemberOf returns the ids of the sets containing candidate cand, in
// ascending order, as a subslice of the shared index; do not modify. It
// finalizes the index if needed.
func (c *RRCollection) MemberOf(cand CandidateID) []int32 {
	c.Finalize()
	return c.memberOf[c.memberOfOff[cand]:c.memberOfOff[cand+1]]
}

// Degree returns |MemberOf(cand)| without materializing the subslice.
func (c *RRCollection) Degree(cand CandidateID) int {
	c.Finalize()
	return int(c.memberOfOff[cand+1] - c.memberOfOff[cand])
}

// nextEpoch advances the scratch epoch, sizing (or re-zeroing on wrap) the
// mark arrays.
func (c *RRCollection) nextEpoch() int32 {
	if c.seedMark == nil {
		c.seedMark = make([]int32, c.numCandidates)
	}
	if sets := c.Len(); sets > len(c.setMark) {
		if sets <= cap(c.setMark) {
			c.setMark = c.setMark[:sets]
		} else {
			grown := make([]int32, sets)
			copy(grown, c.setMark)
			c.setMark = grown
		}
	}
	c.markEpoch++
	if c.markEpoch == 0 {
		for i := range c.seedMark {
			c.seedMark[i] = -1
		}
		for i := range c.setMark {
			c.setMark[i] = -1
		}
		c.markEpoch = 1
	}
	return c.markEpoch
}

// CoverageOf returns how many RR sets contain at least one member of seeds.
// It is the coverage function F_R(S) of the RIS framework; the contribution
// estimate is |T2| * CoverageOf(S) / Len(). The query walks the shared
// memberOf index (cost proportional to the seeds' total membership, not the
// collection size) and reuses epoch-stamped scratch, so steady-state calls
// allocate nothing. Not safe for concurrent use.
func (c *RRCollection) CoverageOf(seeds []CandidateID) int {
	c.Finalize()
	epoch := c.nextEpoch()
	covered := 0
	for _, s := range seeds {
		if c.seedMark[s] == epoch {
			continue // duplicate seed
		}
		c.seedMark[s] = epoch
		for _, si := range c.MemberOf(s) {
			if c.setMark[si] != epoch {
				c.setMark[si] = epoch
				covered++
			}
		}
	}
	return covered
}
