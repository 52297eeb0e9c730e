package wdgraph_test

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand/v2"
	"testing"

	"contribmax/internal/wdgraph"
	"contribmax/internal/workload"
)

// countingSource is a rand.Source that counts the values drawn from it.
// Float64 draws exactly one value, so the count is the number of coins a
// walk flipped.
type countingSource struct {
	src   rand.Source
	draws int
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

// TestWalkDrawsPinned pins the sampled walks themselves: the nodes every
// walk visits, in visit order, and the number of random values the walks
// draw. The walkers draw a coin for exactly the unvisited weight<1 edges,
// in CSR order, so a change to which edges draw, or to the order edges
// are crossed in, moves one of the two numbers. In the TC graph a tc
// fact's producers mix weight 1 (r1) and weight 0.8 (r2); in Explain-40
// every producer is weighted and every body edge is not. Each graph runs
// ReverseReachable from every 5th idb fact and then ForwardReach from
// every 5th edb fact, all on one PCG stream.
func TestWalkDrawsPinned(t *testing.T) {
	tc := mustProgram(t, `
		1.0 r1: tc(X, Y) :- edge(X, Y).
		0.8 r2: tc(X, Y) :- tc(X, Z), tc(Z, Y).
	`)
	cases := []struct {
		name  string
		g     *wdgraph.Graph
		hash  uint64
		draws int
	}{
		{"tc", identityGraph(t, tc, workload.RandomGraphM(20, 60, rand.New(rand.NewPCG(7, 11)))), 0xf50f0c4013a5726b, 209967},
		{"explain-40", identityGraph(t, workload.ExplainProgram(), workload.ExplainDB(40, 3, rand.New(rand.NewPCG(9, 9)))), 0xec188ba756fd8a01, 41889},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var idb, edb []wdgraph.NodeID
			c.g.FactNodes(func(id wdgraph.NodeID, n wdgraph.Node) {
				if n.EDB {
					edb = append(edb, id)
				} else {
					idb = append(idb, id)
				}
			})
			src := &countingSource{src: rand.NewPCG(3, 5)}
			rng := rand.New(src)
			h := fnv.New64a()
			var buf [4]byte
			put := func(v wdgraph.NodeID) {
				binary.LittleEndian.PutUint32(buf[:], uint32(v))
				h.Write(buf[:])
			}
			w := wdgraph.NewWalker(c.g)
			walks := 0
			for i := 0; i < len(idb); i += 5 {
				w.ReverseReachable(idb[i], rng, false, put)
				put(-1)
				walks++
			}
			for i := 0; i < len(edb); i += 5 {
				w.ForwardReach(edb[i:i+1], rng, put)
				put(-1)
				walks++
			}
			if got := h.Sum64(); got != c.hash || src.draws != c.draws {
				t.Errorf("%d walks: hash %#x, draws %d; want %#x, %d", walks, got, src.draws, c.hash, c.draws)
			}
		})
	}
}
