package cm_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand/v2"
	"testing"

	"contribmax/internal/cm"
	"contribmax/internal/im"
	"contribmax/internal/prof"
)

// The pins below were taken before the per-target Magic programs were
// compiled once per target predicate and bound per run. Binding must not
// move any of them: the route counts, the graph statistics, and the
// runtime profile's counts, whose rule families are keyed by rule source
// text, so each target's seed rule is a family of its own.

// magicPinOptions is the solve configuration of every pin in this file.
func magicPinOptions(par int, p *prof.Profile) cm.Options {
	return cm.Options{
		Theta:       im.ThetaSpec{Explicit: 120},
		Rand:        rand.New(rand.NewPCG(17, 23)),
		Parallelism: par,
		Profile:     p,
	}
}

// TestMagicRouteStatsPinned pins, on the golden instance at Parallelism 0
// and 1, Magic^S's route counts and resident ground-program size beside
// the graph statistics TestMagicSampledGraphStatsPinned pins, and
// MagicCM's per-target subgraph statistics.
func TestMagicRouteStatsPinned(t *testing.T) {
	in := goldenInstance(t)
	for _, par := range []int{0, 1} {
		res, err := cm.MagicSampledCM(in, magicPinOptions(par, nil))
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if got, want := [3]int64{int64(st.Groundings), int64(st.GroundAborts), int64(st.PeakResidentSize)}, [3]int64{8, 0, 33214}; got != want {
			t.Errorf("MagicSCM parallelism %d: groundings/aborts/peak resident = %v, want %v", par, got, want)
		}
		res, err = cm.MagicCM(in, magicPinOptions(par, nil))
		if err != nil {
			t.Fatal(err)
		}
		st = res.Stats
		got := [5]int64{int64(st.GraphBuilds), st.TotalNodes, st.TotalEdges, int64(st.MaxNodes), int64(st.MaxEdges)}
		if want := [5]int64{120, 536640, 1493760, 4472, 12448}; got != want {
			t.Errorf("MagicCM parallelism %d: builds/nodes/edges/max nodes/max edges = %v, want %v", par, got, want)
		}
	}
}

// TestMagicProfileCountsPinned pins the sha256 of the runtime profile's
// CountsJSON for MagicCM and Magic^S on the golden instance at
// Parallelism 1.
func TestMagicProfileCountsPinned(t *testing.T) {
	in := goldenInstance(t)
	for _, tc := range []struct {
		name string
		run  func(cm.Input, cm.Options) (*cm.Result, error)
		want string
	}{
		{"MagicCM", cm.MagicCM, "b4a047d42e53c05840c96c113dbac20785586869925bb72f26543ada7009ad2a"},
		{"MagicSCM", cm.MagicSampledCM, "7574ef12632cc5cf848b70c0b7b137a481af8b1bd9912f6b7f88302778c00a0a"},
	} {
		p := prof.New()
		if _, err := tc.run(in, magicPinOptions(1, p)); err != nil {
			t.Fatal(err)
		}
		counts, err := p.Report().CountsJSON()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(counts)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: profile counts sha256 = %s, want %s", tc.name, got, tc.want)
		}
	}
}
