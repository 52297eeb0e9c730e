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
	"contribmax/internal/parser"
	"contribmax/internal/workload"
)

// tc24Instance is a TC-24 ring-with-chords instance with 30 targets: the
// shape on which a target's unsampled Magic program is tens of times its
// sampled runs, so groundings trip their caps unless a group's first
// gated run happens to attempt many instantiations.
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

// TestGroundingCapTripsOnTC24 runs Magic^S where grounding rarely pays.
// At θ 150 the result must equal the one pinned before per-target
// grounding existed. At θ 80 the one predicate's grounding must abort at
// its cap and be counted, and the result must equal the one pinned before
// groundings became one per target predicate.
func TestGroundingCapTripsOnTC24(t *testing.T) {
	in := tc24Instance(t)
	res, err := cm.MagicSampledCM(in, cm.Options{
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
	const want = "algo=MagicSCM seeds=[edge(n0, n1) edge(n1, n2) edge(n12, n13) edge(n15, n16) edge(n19, n20)] gains=[6 4 1 1 1] est=0x1.4cccccccccccdp+01 rr=150 covered=13"
	if got := resultFingerprint(res); got != want {
		t.Errorf("result diverged:\n  got  %s\n  want %s", got, want)
	}
	if st.GraphBuilds != 150 || st.TotalNodes != 17531 || st.TotalEdges != 27581 {
		t.Errorf("builds/nodes/edges = %d/%d/%d, want 150/17531/27581", st.GraphBuilds, st.TotalNodes, st.TotalEdges)
	}

	res, err = cm.MagicSampledCM(in, cm.Options{
		Theta:       im.ThetaSpec{Explicit: 80},
		Rand:        rand.New(rand.NewPCG(5, 8)),
		Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	st = res.Stats
	if st.Groundings == 0 {
		t.Fatal("θ 80: no grounding attempted")
	}
	if st.GroundAborts != st.Groundings {
		t.Errorf("θ 80: %d of %d groundings aborted, want all", st.GroundAborts, st.Groundings)
	}
	const want80 = "algo=MagicSCM seeds=[edge(n0, n1) edge(n1, n2) edge(n11, n12) edge(n16, n17) edge(n19, n20)] gains=[1 1 1 1 0] est=0x1.8p+00 rr=80 covered=4"
	if got := resultFingerprint(res); got != want80 {
		t.Errorf("θ 80: result diverged:\n  got  %s\n  want %s", got, want80)
	}
	if st.GraphBuilds != 80 || st.TotalNodes != 7969 || st.TotalEdges != 10257 {
		t.Errorf("θ 80: builds/nodes/edges = %d/%d/%d, want 80/7969/10257", st.GraphBuilds, st.TotalNodes, st.TotalEdges)
	}
}

// TestMagicBoundFirstOrdersBuiltinsAfterBinders solves, under SIPS
// BoundFirst, a program whose rule body has a built-in scoring higher than
// the atom that binds its variables. The transform must order the
// built-in after its binder (an unsafe magic rule made it reject the
// program), and the result must equal the LeftToRight one: the RR sets do
// not depend on the SIPS.
func TestMagicBoundFirstOrdersBuiltinsAfterBinders(t *testing.T) {
	prog, err := parser.ParseProgram(`
0.8 g1: p1_0(X, Y) :- e(X, Y).
0.6 g5: p1_1(c9) :- p1_0(V0, V1), p1_0(V2, V2), lte(V2, V2).
`)
	if err != nil {
		t.Fatal(err)
	}
	in := cm.Input{
		Program: prog,
		DB:      mustFactsDB(t, "e(c1, c2). e(c3, c3). e(c4, c4)."),
		T2:      atoms(t, "p1_1(c9)"),
		K:       1,
	}
	for _, al := range []algo{{"MagicSCM", cm.MagicSampledCM}, {"MagicCM", cm.MagicCM}} {
		want := ""
		for _, sips := range []magic.SIPS{magic.LeftToRight, magic.BoundFirst} {
			res, err := al.run(in, cm.Options{
				Theta:       im.ThetaSpec{Explicit: 60},
				Rand:        rand.New(rand.NewPCG(9, 9)),
				Parallelism: 1,
				SIPS:        sips,
			})
			if err != nil {
				t.Fatalf("%s SIPS %v: %v", al.name, sips, err)
			}
			got := resultFingerprint(res)
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("%s: BoundFirst %s, LeftToRight %s", al.name, got, want)
			}
		}
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

// TestGroundingNeedsRepeatSlots checks Magic^S's too-few route on TC-24,
// whose 30 targets share one predicate, so every batch is one group of n
// slots over d distinct targets. Without overlap between the targets'
// runs a grounding costs at least one gated run per target, so the group
// is grounded only with two or more repeat slots (n−d >= 2 at c = 1) and
// otherwise evaluated gated without a grounding attempt. The θ and seeds
// cover both sides of the rule at small θ, where most slots draw distinct
// targets.
func TestGroundingNeedsRepeatSlots(t *testing.T) {
	in := tc24Instance(t)
	seen := map[bool]int{}
	for theta := 3; theta <= 6; theta++ {
		for seed := uint64(1); seed <= 6; seed++ {
			j := journal.New("repeat", journal.Options{})
			res, err := cm.MagicSampledCM(in, cm.Options{
				Theta:       im.ThetaSpec{Explicit: theta},
				Rand:        rand.New(rand.NewPCG(seed, 7)),
				Parallelism: 1,
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
			if r == nil || r.Groups != 1 || r.Slots != theta {
				t.Fatalf("θ %d seed %d: route %+v, want one group of %d slots", theta, seed, r, theta)
			}
			tooFew := r.Slots-r.Targets <= 1
			seen[tooFew]++
			if tooFew && (r.TooFew != 1 || res.Stats.Groundings != 0) {
				t.Errorf("θ %d seed %d: %d slots over %d targets, too few %d, groundings %d; want no grounding",
					theta, seed, r.Slots, r.Targets, r.TooFew, res.Stats.Groundings)
			}
			if !tooFew && (r.TooFew != 0 || res.Stats.Groundings != 1) {
				t.Errorf("θ %d seed %d: %d slots over %d targets, too few %d, groundings %d; want one grounding",
					theta, seed, r.Slots, r.Targets, r.TooFew, res.Stats.Groundings)
			}
		}
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("draws cover too few %d times and grounding %d times, want both", seen[true], seen[false])
	}
}

// TestGroundingReleasedPerGroup checks that a Magic^S worker holds one
// ground program at a time: when a grounding completes, every grounding
// the solve built before it must already be unreachable. The instance's
// targets span two predicates, so the solve grounds twice.
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
	if _, err := cm.MagicSampledCM(amiePlanInstance(t), cm.Options{
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
				if r.Grounded+r.CapTripped+r.TooFew != r.Groups {
					t.Errorf("parallelism %d: groups %d != %d + %d + %d", par, r.Groups, r.Grounded, r.CapTripped, r.TooFew)
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
