package wdgraph_test

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"contribmax/internal/db"
	"contribmax/internal/wdgraph"
	"contribmax/internal/workload"
)

// factIDGraphs returns the graphs the FactID tests read: the full TC,
// Explain and AMIE graphs of the layout instances, the Magic projection
// of the two-adornment merge program (whose adorned relations merge into
// one fact node per tuple), and one Magic^S subgraph.
func factIDGraphs(t *testing.T) map[string]*wdgraph.Graph {
	t.Helper()
	out := map[string]*wdgraph.Graph{}
	for _, inst := range layoutInstances(t) {
		if inst.targets != nil {
			out[inst.name+"/magic"], _ = magicGraph(t, inst.prog, inst.db(), inst.targets, 0)
			continue
		}
		full := inst.db()
		out[inst.name+"/identity"] = identityGraph(t, inst.prog, full)
		if inst.name == "explain" {
			out[inst.name+"/magic-sampled"], _ = magicGraph(t, inst.prog, inst.db(), layoutTargets(t, full, inst.pred), 0x5eed)
		}
	}
	return out
}

// factKey renders pred(t) for the reference map.
func factKey(pred string, t db.Tuple) string { return fmt.Sprint(pred, t) }

// TestFactIDFindsEveryFact checks FactID against a map built from the
// graph's fact nodes: every fact node is found under its own predicate
// and tuple, and every other probe — the tuple under each other
// predicate, a rule label used as a predicate, the tuple shortened or
// with an absent symbol, an unknown predicate — finds exactly what the
// map holds.
func TestFactIDFindsEveryFact(t *testing.T) {
	for name, g := range factIDGraphs(t) {
		t.Run(name, func(t *testing.T) {
			ref := map[string]wdgraph.NodeID{}
			preds, labels := map[string]bool{}, map[string]bool{}
			for i := 0; i < g.NumNodes(); i++ {
				n := g.Node(wdgraph.NodeID(i))
				if n.Kind == wdgraph.RuleNode {
					labels[n.Pred] = true
					continue
				}
				ref[factKey(n.Pred, n.Tuple)] = wdgraph.NodeID(i)
				preds[n.Pred] = true
			}
			if len(ref) == 0 || len(labels) == 0 {
				t.Fatalf("graph has %d facts and %d rule labels", len(ref), len(labels))
			}
			check := func(pred string, tuple db.Tuple) {
				t.Helper()
				want, wantOK := ref[factKey(pred, tuple)]
				if got, ok := g.FactID(pred, tuple); ok != wantOK || got != want && ok {
					t.Fatalf("FactID(%s, %v) = %d, %v; want %d, %v", pred, tuple, got, ok, want, wantOK)
				}
			}
			misses := 0
			g.FactNodes(func(id wdgraph.NodeID, n wdgraph.Node) {
				if got, ok := g.FactID(n.Pred, n.Tuple); !ok || got != id {
					t.Fatalf("FactID of node %d %s%v = %d, %v", id, n.Pred, n.Tuple, got, ok)
				}
				for p := range preds {
					if _, hit := ref[factKey(p, n.Tuple)]; !hit {
						misses++
					}
					check(p, n.Tuple)
				}
				for l := range labels {
					if preds[l] {
						continue
					}
					if _, ok := g.FactID(l, n.Tuple); ok {
						t.Fatalf("FactID(%s, %v) found a node for rule label %s", l, n.Tuple, l)
					}
				}
				check("nosuchpredicate", n.Tuple)
				if len(n.Tuple) > 0 {
					check(n.Pred, n.Tuple[:len(n.Tuple)-1])
					absent := append(db.Tuple(nil), n.Tuple...)
					absent[0] = 1 << 30
					check(n.Pred, absent)
				}
			})
			if len(preds) > 1 && misses == 0 {
				t.Error("no probe under another predicate missed")
			}
		})
	}
}

// TestFactIDConcurrentReaders calls FactID from several goroutines on one
// finalized graph, as the solve cache's requests do on a shared graph,
// hits and misses alike. Run it under -race.
func TestFactIDConcurrentReaders(t *testing.T) {
	g := identityGraph(t, workload.ExplainProgram(), workload.ExplainDB(60, 3, rand.New(rand.NewPCG(4, 4))))
	type probe struct {
		pred  string
		tuple db.Tuple
		id    wdgraph.NodeID
		ok    bool
	}
	var probes []probe
	g.FactNodes(func(id wdgraph.NodeID, n wdgraph.Node) {
		probes = append(probes, probe{n.Pred, n.Tuple, id, true})
		other := "friend"
		if n.Pred == other {
			other = "colleague"
		}
		oid, ook := g.FactID(other, n.Tuple)
		probes = append(probes, probe{other, n.Tuple, oid, ook}, probe{"x1", n.Tuple, 0, false})
	})
	const readers = 4
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := range probes {
				p := probes[(i*readers+r)%len(probes)]
				if id, ok := g.FactID(p.pred, p.tuple); ok != p.ok || ok && id != p.id {
					t.Errorf("reader %d: FactID(%s, %v) = %d, %v; want %d, %v", r, p.pred, p.tuple, id, ok, p.id, p.ok)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestFullBuildAllocations pins the full graph build's allocation bound:
// an Explain-160 wdgraph.Build (the naive-explain instance) allocates
// fewer than one object per 100 nodes, both sequentially and pipelined
// with the two-core finalize. The relations, the fact index and the edge
// log grow by doubling or in chunks, so the count follows the logarithm
// of the graph's size, not the graph's size.
func TestFullBuildAllocations(t *testing.T) {
	w := workload.Explain(160, 3, rand.New(rand.NewPCG(1, 2)))
	for _, par := range []int{1, 2} {
		nodes := 0
		allocs := testing.AllocsPerRun(1, func() {
			g, _, err := wdgraph.Build(w.Program, w.DB.Scratch(w.Program.EDBs()), wdgraph.BuildConfig{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			nodes = g.NumNodes()
		})
		if nodes < 50_000 || allocs >= float64(nodes)/100 {
			t.Errorf("Parallelism=%d: a build of %d nodes allocates %.0f objects, want fewer than %d", par, nodes, allocs, nodes/100)
		}
	}
}
