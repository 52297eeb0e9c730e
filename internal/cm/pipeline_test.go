package cm_test

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"testing"

	"contribmax/internal/cm"
	"contribmax/internal/im"
	"contribmax/internal/obs"
	"contribmax/internal/obs/journal"
	"contribmax/internal/prof"
	"contribmax/internal/workload"
)

// TestNaiveCMPipelineMatchesSequential solves one Explain instance with
// NaiveCM and all four sinks attached at Parallelism 1 and 2. At 2 the
// full-graph build runs pipelined — the WD-graph builder consumes the
// derivations beside the fixpoint — and must change nothing observable:
// the Result (times aside) is byte-identical, and so are the engine.round
// and graph.build events (times aside).
func TestNaiveCMPipelineMatchesSequential(t *testing.T) {
	w := workload.Explain(60, 3, rand.New(rand.NewPCG(5, 9)))
	related := evalFacts(t, w.Program, w.DB, "related")
	if len(related) < 300 {
		t.Fatalf("sparse instance (%d related facts); pick another generator seed", len(related))
	}
	in := cm.Input{Program: w.Program, DB: w.DB, T2: related[:12], K: 4}
	solve := func(par int) (result, events string, reg *obs.Registry) {
		reg = obs.NewRegistry()
		j := journal.New("", journal.Options{})
		res, err := cm.NaiveCM(in, cm.Options{
			Theta:       im.ThetaSpec{Explicit: 300},
			Rand:        rand.New(rand.NewPCG(3, 5)),
			Parallelism: par,
			Obs:         reg,
			Trace:       obs.StartSpan("test"),
			Journal:     j,
			Profile:     prof.New(),
		})
		if err != nil {
			t.Fatalf("Parallelism=%d: %v", par, err)
		}
		res.Stats.BuildTime, res.Stats.RRGenTime, res.Stats.SelectTime = 0, 0, 0
		res.Stats.TotalTime, res.Stats.LineageTime = 0, 0
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range j.Snapshot() {
			switch ev.Type {
			case journal.TypeEngineRound:
				events += fmt.Sprintf("round %+v\n", *ev.Round)
			case journal.TypeGraphBuild:
				events += fmt.Sprintf("build nodes=%d edges=%d\n", ev.Build.Nodes, ev.Build.Edges)
			}
		}
		return string(raw), events, reg
	}
	wantRes, wantEvents, seqReg := solve(1)
	gotRes, gotEvents, pipeReg := solve(2)
	if gotRes != wantRes {
		t.Errorf("Result at Parallelism=2 differs:\n  got  %s\n  want %s", gotRes, wantRes)
	}
	if gotEvents != wantEvents {
		t.Errorf("engine.round/graph.build events at Parallelism=2 differ:\n%s\nwant:\n%s", gotEvents, wantEvents)
	}
	if seqReg.Counter(obs.EnginePipeBatches).Value() != 0 {
		t.Error("Parallelism=1 ran the pipeline")
	}
	if n := pipeReg.Counter(obs.EngineInstantiations).Value(); n < 4*2048 {
		t.Errorf("the build fired %d instantiations, too few to fill several pipeline batches", n)
	}
	if pipeReg.Counter(obs.EnginePipeBatches).Value() < 2 {
		t.Error("Parallelism=2 did not pipeline the full-graph build")
	}
}
