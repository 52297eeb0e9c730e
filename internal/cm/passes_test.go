package cm_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"contribmax/internal/cm"
	"contribmax/internal/im"
	"contribmax/internal/obs/journal"
)

// TestMagicSampledPassBoundaries pins Magic^S on the golden instance,
// whose eight targets share one predicate, at θ where the one group's
// grounded slots (all but the first, which runs gated) fill one
// propagation pass of 64 exactly (θ 65), spill one slot into a second
// pass (θ 66) and spill one into a third (θ 130). Result, graph
// statistics and route must equal the values captured when every slot was
// propagated on its own, at Parallelism 1 and 2.
func TestMagicSampledPassBoundaries(t *testing.T) {
	in := goldenInstance(t)
	want := map[int]string{
		65:  "algo=MagicSCM seeds=[edge(n15, n5) edge(n5, n0) edge(n9, n14)] gains=[58 3 0] est=0x1.e07e07e07e07ep+02 rr=65 covered=61 builds=65 nodes=127649 edges=326172 max=2263/5840 peak=53620 groundings=1/0",
		66:  "algo=MagicSCM seeds=[edge(n0, n15) edge(n6, n7) edge(n9, n14)] gains=[63 1 0] est=0x1.f07c1f07c1f08p+02 rr=66 covered=64 builds=66 nodes=132203 edges=338155 max=2262/5849 peak=53620 groundings=1/0",
		130: "algo=MagicSCM seeds=[edge(n0, n15) edge(n5, n0) edge(n9, n14)] gains=[120 7 0] est=0x1.f42f42f42f42fp+02 rr=130 covered=127 builds=130 nodes=254679 edges=650515 max=2263/5858 peak=53620 groundings=1/0",
	}
	for _, theta := range []int{65, 66, 130} {
		for _, par := range []int{1, 2} {
			j := journal.New("passes", journal.Options{})
			res, err := cm.MagicSampledCM(in, cm.Options{
				Theta:       im.ThetaSpec{Explicit: theta},
				Rand:        rand.New(rand.NewPCG(uint64(theta), 65)),
				Parallelism: par,
				Journal:     j,
			})
			if err != nil {
				t.Fatal(err)
			}
			var r *journal.RouteInfo
			for _, ev := range j.Snapshot() {
				if ev.Type == journal.TypeRRRoute {
					r = ev.Route
				}
			}
			if r == nil || r.Groups != 1 || r.Grounded != 1 || r.GroundedSlots != theta {
				t.Fatalf("θ %d P %d: route %+v, want one grounded group of %d slots", theta, par, r, theta)
			}
			st := res.Stats
			got := fmt.Sprintf("%s builds=%d nodes=%d edges=%d max=%d/%d peak=%d groundings=%d/%d",
				resultFingerprint(res), st.GraphBuilds, st.TotalNodes, st.TotalEdges, st.MaxNodes, st.MaxEdges,
				st.PeakResidentSize, st.Groundings, st.GroundAborts)
			if got != want[theta] {
				t.Errorf("θ %d P %d:\n  got  %s\n  want %s", theta, par, got, want[theta])
			}
		}
	}
}
