package cm_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"contribmax/internal/cm"
	"contribmax/internal/im"
	"contribmax/internal/obs"
	"contribmax/internal/obs/journal"
	"contribmax/internal/workload"
)

// journalInstance is a small two-chain TC instance with enough structure
// that every algorithm selects multiple seeds with non-trivial gains.
func journalInstance(t *testing.T, k int) cm.Input {
	t.Helper()
	d := mustFactsDB(t, `
		edge(a, b). edge(b, c). edge(c, d).
		edge(x, y). edge(y, z).
		edge(p, q).
	`)
	return cm.Input{
		Program: workload.TCProgramDirected(1.0, 0.8),
		DB:      d,
		T2:      atoms(t, "tc(a, d)", "tc(a, c)", "tc(x, z)", "tc(p, q)"),
		K:       k,
	}
}

func decodeJournal(t *testing.T, raw []byte) []journal.Event {
	t.Helper()
	var evs []journal.Event
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		var ev journal.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad journal line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestJournalRoundTrip is the acceptance criterion: the JSONL journal's
// per-iteration select.iter records must reconstruct the exact seed set
// and total coverage the solver reported, for every algorithm.
func TestJournalRoundTrip(t *testing.T) {
	for _, al := range algos {
		t.Run(al.name, func(t *testing.T) {
			var sink bytes.Buffer
			j := journal.New("", journal.Options{Sink: &sink})
			res, err := al.run(journalInstance(t, 3), cm.Options{
				Theta:   im.ThetaSpec{Explicit: 300},
				Rand:    rand.New(rand.NewPCG(7, 9)),
				Journal: j,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			evs := decodeJournal(t, sink.Bytes())

			var start, finish int
			var seeds []string
			covered, lastCoverage := 0, 0.0
			for _, ev := range evs {
				if ev.Run != j.Run() {
					t.Fatalf("event %d run %q != journal run %q", ev.Seq, ev.Run, j.Run())
				}
				switch ev.Type {
				case journal.TypeSolveStart:
					start++
					if ev.Solve.Algorithm != res.Algorithm {
						t.Errorf("start algorithm %q", ev.Solve.Algorithm)
					}
					if ev.Solve.K != 3 || ev.Solve.Theta != 300 || ev.Solve.Fingerprint == "" {
						t.Errorf("start payload %+v", ev.Solve)
					}
				case journal.TypeSolveFinish:
					finish++
					if ev.Finish.CoveredRR != res.Stats.CoveredRR || ev.Finish.NumRR != res.Stats.NumRR {
						t.Errorf("finish coverage %d/%d, want %d/%d",
							ev.Finish.CoveredRR, ev.Finish.NumRR, res.Stats.CoveredRR, res.Stats.NumRR)
					}
					if ev.Finish.EstContribution != res.EstContribution {
						t.Errorf("finish est %g != %g", ev.Finish.EstContribution, res.EstContribution)
					}
				case journal.TypeSelectIter:
					if ev.Iter.I != len(seeds) {
						t.Errorf("iteration %d out of order (have %d seeds)", ev.Iter.I, len(seeds))
					}
					seeds = append(seeds, ev.Iter.Seed)
					covered += ev.Iter.Gain
					if ev.Iter.Covered != covered {
						t.Errorf("iter %d cumulative covered %d, prefix sum %d", ev.Iter.I, ev.Iter.Covered, covered)
					}
					if ev.Iter.Coverage < lastCoverage {
						t.Errorf("coverage decreased at iter %d", ev.Iter.I)
					}
					lastCoverage = ev.Iter.Coverage
				}
			}
			if start != 1 || finish != 1 {
				t.Fatalf("start/finish events = %d/%d", start, finish)
			}

			// The reconstruction: seeds in order, and total coverage.
			wantSeeds := make([]string, len(res.Seeds))
			for i, s := range res.Seeds {
				wantSeeds[i] = s.String()
			}
			if !reflect.DeepEqual(seeds, wantSeeds) {
				t.Errorf("journal seeds %v != result %v", seeds, wantSeeds)
			}
			if covered != res.Stats.CoveredRR {
				t.Errorf("journal coverage %d != result %d", covered, res.Stats.CoveredRR)
			}
			if res.Stats.NumRR > 0 && lastCoverage != float64(res.Stats.CoveredRR)/float64(res.Stats.NumRR) {
				t.Errorf("final coverage fraction %g", lastCoverage)
			}
		})
	}
}

// TestJournalDoesNotPerturbResults pins the zero-interference contract:
// for a fixed seed, a journaled solve returns byte-identical results to an
// unjournaled one.
func TestJournalDoesNotPerturbResults(t *testing.T) {
	for _, al := range algos {
		t.Run(al.name, func(t *testing.T) {
			run := func(j *journal.Journal) *cm.Result {
				res, err := al.run(journalInstance(t, 2), cm.Options{
					Theta:       im.ThetaSpec{Explicit: 200},
					Rand:        rand.New(rand.NewPCG(3, 5)),
					Parallelism: 2,
					Journal:     j,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			plain := run(nil)
			journaled := run(journal.New("", journal.Options{}))
			if !reflect.DeepEqual(seedsOf(plain), seedsOf(journaled)) {
				t.Errorf("seeds differ: %v vs %v", seedsOf(plain), seedsOf(journaled))
			}
			if plain.EstContribution != journaled.EstContribution {
				t.Errorf("estimates differ: %g vs %g", plain.EstContribution, journaled.EstContribution)
			}
			if !reflect.DeepEqual(plain.SeedGains, journaled.SeedGains) {
				t.Errorf("gains differ: %v vs %v", plain.SeedGains, journaled.SeedGains)
			}
		})
	}
}

// TestJournalPhaseEvents checks the full event taxonomy on the two
// full-graph algorithms: one graph.build, at least one engine.round, RR
// batch totals covering every set, and one select.iter per seed.
func TestJournalPhaseEvents(t *testing.T) {
	for _, al := range algos {
		if al.name != "NaiveCM" && al.name != "MagicGCM" {
			continue
		}
		t.Run(al.name, func(t *testing.T) {
			j := journal.New("phase", journal.Options{})
			res, err := al.run(journalInstance(t, 2), cm.Options{
				Theta:       im.ThetaSpec{Explicit: 500},
				Rand:        rand.New(rand.NewPCG(1, 1)),
				Parallelism: 2,
				Journal:     j,
			})
			if err != nil {
				t.Fatal(err)
			}
			builds, rounds, iters := 0, 0, 0
			workerTotal := map[int]int{}
			for _, ev := range j.Snapshot() {
				switch ev.Type {
				case journal.TypeGraphBuild:
					builds++
					if ev.Build.Nodes <= 0 || ev.Build.Edges <= 0 {
						t.Errorf("empty build event %+v", ev.Build)
					}
				case journal.TypeEngineRound:
					rounds++
					if ev.Round.Delta <= 0 {
						t.Errorf("round with no delta %+v", ev.Round)
					}
				case journal.TypeRRBatch:
					workerTotal[ev.RR.Worker] = ev.RR.TotalSets
				case journal.TypeSelectIter:
					iters++
				}
			}
			if builds != 1 {
				t.Errorf("graph.build events = %d, want 1", builds)
			}
			if rounds == 0 {
				t.Error("no engine.round events")
			}
			total := 0
			for _, n := range workerTotal {
				total += n
			}
			if total != res.Stats.NumRR {
				t.Errorf("rr.batch totals %d != NumRR %d", total, res.Stats.NumRR)
			}
			if iters != len(res.Seeds) {
				t.Errorf("select.iter events = %d, seeds = %d", iters, len(res.Seeds))
			}
		})
	}
}

// TestJournalAdaptiveIMMRounds checks that adaptive solves journal their
// phase-1 convergence: imm.round events with strictly increasing θ, and
// per-worker rr.batch running totals that cover every IMM batch.
func TestJournalAdaptiveIMMRounds(t *testing.T) {
	j := journal.New("imm", journal.Options{})
	res, err := cm.NaiveCM(journalInstance(t, 2), cm.Options{
		Adaptive:    true,
		Theta:       im.ThetaSpec{Epsilon: 0.3, MaxAuto: 3000},
		Rand:        rand.New(rand.NewPCG(2, 4)),
		Parallelism: 2,
		Journal:     j,
	})
	if err != nil {
		t.Fatal(err)
	}
	lastTheta, rounds := 0, 0
	workerTotal := map[int]int{}
	for _, ev := range j.Snapshot() {
		if ev.Type == journal.TypeRRBatch {
			workerTotal[ev.RR.Worker] = ev.RR.TotalSets
		}
		if ev.Type != journal.TypeIMMRound {
			continue
		}
		rounds++
		if ev.IMM.Round != rounds {
			t.Errorf("imm round ordinal %d, want %d", ev.IMM.Round, rounds)
		}
		if ev.IMM.Theta < lastTheta {
			t.Errorf("imm θ decreased: %d -> %d", lastTheta, ev.IMM.Theta)
		}
		lastTheta = ev.IMM.Theta
		if ev.IMM.X <= 0 {
			t.Errorf("imm threshold %g", ev.IMM.X)
		}
	}
	if rounds == 0 {
		t.Fatal("no imm.round events from an adaptive solve")
	}
	total := 0
	for _, n := range workerTotal {
		total += n
	}
	if total != res.Stats.NumRR {
		t.Errorf("rr.batch totals %d != NumRR %d", total, res.Stats.NumRR)
	}
}

// TestSnapshotDuringSolveRace hammers registry snapshots, Prometheus
// exposition, and journal subscriptions while a parallel journaled solve
// runs — the -race exercise for the single-pass snapshot API and the
// journal's locking. Invariants: histogram counts match their bucket
// sums, and journal sequence numbers stay contiguous.
func TestSnapshotDuringSolveRace(t *testing.T) {
	reg := obs.NewRegistry()
	j := journal.New("race", journal.Options{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s := reg.Snapshot()
				for name, h := range s.Histograms {
					var bsum int64
					for _, n := range h.Buckets {
						bsum += n
					}
					if h.Count != bsum {
						t.Errorf("%s: count %d != bucket sum %d", name, h.Count, bsum)
						return
					}
				}
				var sink bytes.Buffer
				if err := reg.WritePrometheus(&sink); err != nil {
					t.Error(err)
					return
				}
				replay, ch, cancel := j.Subscribe(4)
				for i := 1; i < len(replay); i++ {
					if replay[i].Seq != replay[i-1].Seq+1 {
						t.Errorf("journal replay gap at %d", i)
						cancel()
						return
					}
				}
				cancel()
				for range ch {
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		res, err := cm.MagicSampledCM(journalInstance(t, 2), cm.Options{
			Theta:       im.ThetaSpec{Explicit: 400},
			Rand:        rand.New(rand.NewPCG(uint64(i), 11)),
			Parallelism: 4,
			Obs:         reg,
			Journal:     j,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Seeds) == 0 {
			t.Fatal("no seeds")
		}
	}
	close(done)
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}
