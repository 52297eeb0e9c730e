package cm_test

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"contribmax/internal/cm"
	"contribmax/internal/im"
	"contribmax/internal/prof"
)

// The route counts and graph statistics below were pinned before the
// per-target Magic programs were compiled once per target predicate and
// bound per run; neither binding nor reading the targets from a query
// relation may move them. Magic^S's route counts were re-pinned once, when
// its groundings became one per target predicate: the golden instance has
// one target predicate, so one grounding of its eight-query run replaces
// eight per-target ones. The runtime profile's counts are keyed by rule
// source text and follow the rounds, so they move with the program's
// text: they were re-pinned with the groundings, and again when the seed
// rules began to read the query relation, which folded the per-target
// seed-fact families into one seed rule per predicate and added the seed
// round to every run's stratum curve.

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
		if got, want := [3]int64{int64(st.Groundings), int64(st.GroundAborts), int64(st.PeakResidentSize)}, [3]int64{1, 0, 53620}; got != want {
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

// TestMagicProfileCountsPinned pins the runtime profile's CountsJSON for
// MagicCM and Magic^S on the golden instance at Parallelism 1, indented,
// byte for byte against testdata/magic_profile_<algorithm>.json; on a
// mismatch it reports the first line that differs. -update-golden
// rewrites the files.
func TestMagicProfileCountsPinned(t *testing.T) {
	in := goldenInstance(t)
	for _, tc := range []struct {
		name string
		run  func(cm.Input, cm.Options) (*cm.Result, error)
	}{
		{"MagicCM", cm.MagicCM},
		{"MagicSCM", cm.MagicSampledCM},
	} {
		p := prof.New()
		if _, err := tc.run(in, magicPinOptions(1, p)); err != nil {
			t.Fatal(err)
		}
		counts, err := p.Report().CountsJSON()
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := json.Indent(&got, counts, "", "  "); err != nil {
			t.Fatal(err)
		}
		got.WriteByte('\n')
		path := filepath.Join("testdata", "magic_profile_"+tc.name+".json")
		if *updateGolden {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got.Bytes(), want) {
			continue
		}
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
			i++
		}
		line := func(ls []string) string {
			if i < len(ls) {
				return ls[i]
			}
			return "(end of file)"
		}
		t.Errorf("%s: profile counts differ from %s at line %d:\n  got  %s\n  want %s", tc.name, path, i+1, line(gl), line(wl))
	}
}
