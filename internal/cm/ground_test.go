package cm_test

import (
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"contribmax/internal/cm"
	"contribmax/internal/im"
	"contribmax/internal/magic"
	"contribmax/internal/obs/journal"
	"contribmax/internal/workload"
)

// tc24Instance is a TC-24 ring-with-chords instance with 30 targets: the
// shape on which a target's unsampled Magic program is tens of times its
// sampled runs, so every grounding trips its cap.
func tc24Instance(t *testing.T) cm.Input {
	t.Helper()
	w, err := workload.ByName("TC", 24, rand.New(rand.NewPCG(24, 1)))
	if err != nil {
		t.Fatal(err)
	}
	targets := evalFacts(t, w.Program, w.DB, "tc")
	rng := rand.New(rand.NewPCG(24, 2))
	rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	return cm.Input{Program: w.Program, DB: w.DB, T2: targets[:30], K: 5}
}

// TestGroundingCapTripsOnTC24 runs Magic^S where grounding cannot pay:
// every attempted grounding must abort at its cap and be counted, and the
// result must equal the one pinned before per-target grounding existed.
func TestGroundingCapTripsOnTC24(t *testing.T) {
	res, err := cm.MagicSampledCM(tc24Instance(t), cm.Options{
		Theta:       im.ThetaSpec{Explicit: 150},
		Rand:        rand.New(rand.NewPCG(11, 11^0x5EED)),
		Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Groundings == 0 {
		t.Fatal("no grounding attempted")
	}
	if st.GroundAborts != st.Groundings {
		t.Errorf("%d of %d groundings aborted, want all", st.GroundAborts, st.Groundings)
	}
	const want = "algo=MagicSCM seeds=[edge(n0, n1) edge(n1, n2) edge(n12, n13) edge(n15, n16) edge(n19, n20)] gains=[6 4 1 1 1] est=0x1.4cccccccccccdp+01 rr=150 covered=13"
	if got := resultFingerprint(res); got != want {
		t.Errorf("result diverged:\n  got  %s\n  want %s", got, want)
	}
	if st.GraphBuilds != 150 || st.TotalNodes != 17531 || st.TotalEdges != 27581 {
		t.Errorf("builds/nodes/edges = %d/%d/%d, want 150/17531/27581", st.GraphBuilds, st.TotalNodes, st.TotalEdges)
	}
}

// TestMagicSampledGraphStatsPinned pins Magic^S's per-RR-set graph
// accounting on the golden instance, at Parallelism 0 (one worker) and 1,
// to the values of per-RR evaluation: propagated RR sets must report the
// subgraph the gated run would have built.
func TestMagicSampledGraphStatsPinned(t *testing.T) {
	in := goldenInstance(t)
	want := map[int][5]int64{
		0: {120, 238364, 609250, 2261, 5844},
		1: {120, 238364, 609250, 2261, 5844},
	}
	for par, w := range want {
		res, err := cm.MagicSampledCM(in, cm.Options{
			Theta:       im.ThetaSpec{Explicit: 120},
			Rand:        rand.New(rand.NewPCG(17, 23)),
			Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		got := [5]int64{int64(st.GraphBuilds), st.TotalNodes, st.TotalEdges, int64(st.MaxNodes), int64(st.MaxEdges)}
		if got != w {
			t.Errorf("parallelism %d: builds/nodes/edges/max nodes/max edges = %v, want %v", par, got, w)
		}
		if st.Groundings == 0 || st.Groundings == st.GroundAborts {
			t.Errorf("parallelism %d: %d groundings, %d aborted: no RR set was propagated", par, st.Groundings, st.GroundAborts)
		}
	}
}

// TestGroundingReleasedPerGroup checks that a Magic^S worker holds one
// ground program at a time: when a grounding completes, every grounding
// the solve built before it must already be unreachable.
func TestGroundingReleasedPerGroup(t *testing.T) {
	var built, freed atomic.Int64
	held := 0
	cm.SetGroundingHook(func(g *magic.Grounding) {
		for deadline := time.Now().Add(2 * time.Second); freed.Load() < built.Load() && time.Now().Before(deadline); {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if freed.Load() < built.Load() {
			held++
		}
		built.Add(1)
		runtime.SetFinalizer(g, func(*magic.Grounding) { freed.Add(1) })
	})
	defer cm.SetGroundingHook(nil)
	if _, err := cm.MagicSampledCM(goldenInstance(t), cm.Options{
		Theta:       im.ThetaSpec{Explicit: 120},
		Rand:        rand.New(rand.NewPCG(17, 23)),
		Parallelism: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if n := built.Load(); n < 2 {
		t.Fatalf("%d groundings completed; the check needs two", n)
	}
	if held > 0 {
		t.Errorf("%d of %d groundings completed while an earlier one was still reachable", held, built.Load())
	}
}

// TestJournalRRRoute checks the rr.route event: one per Magic^S solve,
// slot and target counts that add up, abort counts matching Stats, and
// the same record at every Parallelism level; MagicCM emits none.
func TestJournalRRRoute(t *testing.T) {
	routeOf := func(run func(cm.Input, cm.Options) (*cm.Result, error), in cm.Input, theta, par int) (*journal.RouteInfo, *cm.Result) {
		t.Helper()
		j := journal.New("route", journal.Options{})
		res, err := run(in, cm.Options{
			Theta:       im.ThetaSpec{Explicit: theta},
			Rand:        rand.New(rand.NewPCG(3, 4)),
			Parallelism: par,
			Journal:     j,
		})
		if err != nil {
			t.Fatal(err)
		}
		var route *journal.RouteInfo
		for _, ev := range j.Snapshot() {
			if ev.Type == journal.TypeRRRoute {
				if route != nil {
					t.Fatal("more than one rr.route event")
				}
				route = ev.Route
			}
		}
		return route, res
	}
	for _, tc := range []struct {
		name  string
		in    cm.Input
		theta int
	}{{"golden", goldenInstance(t), 60}, {"tc24", tc24Instance(t), 150}} {
		t.Run(tc.name, func(t *testing.T) {
			var first *journal.RouteInfo
			for _, par := range []int{0, 1, 3} {
				r, res := routeOf(cm.MagicSampledCM, tc.in, tc.theta, par)
				if r == nil {
					t.Fatalf("parallelism %d: no rr.route event", par)
				}
				if r.Slots != res.Stats.NumRR || r.GroundedSlots+r.CapSlots+r.TooFewSlots != r.Slots {
					t.Errorf("parallelism %d: slots %d = %d grounded + %d capped + %d too few, NumRR %d",
						par, r.Slots, r.GroundedSlots, r.CapSlots, r.TooFewSlots, res.Stats.NumRR)
				}
				if r.Grounded+r.CapTripped+r.TooFew != r.Targets {
					t.Errorf("parallelism %d: targets %d != %d + %d + %d", par, r.Targets, r.Grounded, r.CapTripped, r.TooFew)
				}
				if r.Grounded+r.CapTripped != res.Stats.Groundings || r.CapTripped != res.Stats.GroundAborts {
					t.Errorf("parallelism %d: route %+v disagrees with stats groundings=%d aborts=%d",
						par, *r, res.Stats.Groundings, res.Stats.GroundAborts)
				}
				if r.C != 1 || (r.CapTripped > 0) != (r.CapA1 > 0) {
					t.Errorf("parallelism %d: c=%g cap A1 total %d for %d tripped", par, r.C, r.CapA1, r.CapTripped)
				}
				if first == nil {
					first = r
				} else if *r != *first {
					t.Errorf("parallelism %d: route %+v, want %+v", par, *r, *first)
				}
			}
		})
	}
	if r, _ := routeOf(cm.MagicCM, goldenInstance(t), 60, 2); r != nil {
		t.Errorf("MagicCM emitted rr.route %+v", *r)
	}
}
