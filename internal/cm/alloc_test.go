package cm_test

// Steady-state allocation contract of the RIS hot path: once the walker's
// marks, queue, and the member buffer have reached their high-water size, a
// reverse sampled walk must not allocate at all. The companion contract for
// CoverageOf lives in internal/im. Both run under -race in CI.

import (
	"testing"

	"math/rand/v2"

	"contribmax/internal/im"
	"contribmax/internal/wdgraph"
	"contribmax/internal/workload"
)

func TestSteadyStateWalkZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	d := workload.RandomGraphM(30, 90, rng)
	prog := workload.TCProgram(0.9, 0.6)
	g, _, err := wdgraph.Build(prog, d, wdgraph.BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Root: any derived tc fact with ancestors.
	var root wdgraph.NodeID
	found := false
	g.FactNodes(func(id wdgraph.NodeID, n wdgraph.Node) {
		if !found && !n.EDB && g.InDegree(id) > 0 {
			root, found = id, true
		}
	})
	if !found {
		t.Skip("no derived fact in workload")
	}

	walker := wdgraph.NewWalker(g)
	walkRng := rand.New(rand.NewPCG(11, 13))
	var members []im.CandidateID
	visit := func(v wdgraph.NodeID) {
		if g.Node(v).EDB {
			members = append(members, im.CandidateID(v))
		}
	}
	// Warm-up: let the queue, marks, and member buffer reach their
	// high-water capacity.
	for i := 0; i < 50; i++ {
		members = members[:0]
		walker.ReverseReachable(root, walkRng, false, visit)
	}
	grows := walker.Grows()

	if avg := testing.AllocsPerRun(200, func() {
		members = members[:0]
		walker.ReverseReachable(root, walkRng, false, visit)
	}); avg != 0 {
		t.Errorf("steady-state RR walk allocates %.1f allocs/op, want 0", avg)
	}
	if walker.Grows() != grows {
		t.Errorf("walker scratch regrew during steady state: %d -> %d", grows, walker.Grows())
	}
}
