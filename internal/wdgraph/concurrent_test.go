package wdgraph_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"contribmax/internal/wdgraph"
	"contribmax/internal/workload"
)

// readDigest reads every part of g through its public read paths — Node,
// FactID, InEdges/OutEdges, FactNodes and a walker of its own doing
// sampled reverse and forward walks — and hashes what it saw. Two calls
// on one graph must agree.
func readDigest(t *testing.T, g *wdgraph.Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := 0; i < g.NumNodes(); i++ {
		id := wdgraph.NodeID(i)
		n := g.Node(id)
		put(uint64(n.Kind))
		h.Write([]byte(n.Pred))
		for _, s := range n.Tuple {
			put(uint64(s))
		}
		if n.Kind == wdgraph.FactNode {
			if got, ok := g.FactID(n.Pred, n.Tuple); !ok || got != id {
				t.Errorf("FactID of node %d = %d, %v", id, got, ok)
			}
		}
		put(math.Float64bits(g.Weight(id)))
		for _, es := range [][]wdgraph.NodeID{g.InEdges(id), g.OutEdges(id)} {
			for _, to := range es {
				put(uint64(to))
			}
		}
	}
	var facts []wdgraph.NodeID
	g.FactNodes(func(id wdgraph.NodeID, n wdgraph.Node) {
		facts = append(facts, id)
		put(uint64(len(n.Tuple)))
	})
	w := wdgraph.NewWalker(g)
	rng := rand.New(rand.NewPCG(1, 2))
	visit := func(v wdgraph.NodeID) { put(uint64(v)) }
	for i := 0; i < len(facts); i += 7 {
		w.ReverseReachable(facts[i], rng, false, visit)
		w.ForwardReach(facts[i:i+1], rng, visit)
	}
	return h.Sum64()
}

// TestConcurrentGraphReads reads one finalized graph from several
// goroutines at once, the way NaiveCM's RR workers and the solve cache
// share a graph. The readers race through the graph's one lazily built
// state, the out-adjacency that the first OutEdges or ForwardReach
// transposes; every other read path builds none. The expected digest
// comes from a second build, so that the shared graph's transpose is left
// to the readers. Run it under -race (make race covers this package, and
// repeats this test ten times).
func TestConcurrentGraphReads(t *testing.T) {
	graph := func() *wdgraph.Graph {
		d := workload.ExplainDB(40, 3, rand.New(rand.NewPCG(9, 9)))
		return identityGraph(t, workload.ExplainProgram(), d)
	}
	want := readDigest(t, graph())
	g := graph()

	const readers = 4
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := readDigest(t, g); got != want {
				t.Errorf("concurrent read digest %x, want %x", got, want)
			}
		}()
	}
	wg.Wait()
}
