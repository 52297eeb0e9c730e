package experiments

import (
	"math/rand/v2"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/workload"
)

// Scale selects experiment sizes: Quick keeps every figure under a few
// seconds (CI, go test -bench), Full runs the laptop-scale sweep reported
// in EXPERIMENTS.md. Neither reaches the paper's 96 GB-server sizes; the
// sweeps preserve orderings and growth shapes, not absolute numbers.
type Scale int

const (
	Quick Scale = iota
	Full
)

// Dataset names the paper's four workloads.
type Dataset string

const (
	TC      Dataset = "TC"
	Explain Dataset = "Explain"
	IRIS    Dataset = "IRIS"
	AMIE    Dataset = "AMIE"
)

// Datasets lists all four in the paper's presentation order.
var Datasets = []Dataset{TC, Explain, IRIS, AMIE}

// sizesFor returns the per-dataset size sweep (an opaque size parameter
// interpreted by buildWorkload).
func sizesFor(ds Dataset, scale Scale) []int {
	quick := map[Dataset][]int{
		TC:      {10, 16, 24},
		Explain: {40, 80, 160},
		IRIS:    {60, 120, 240},
		AMIE:    {6, 8, 10},
	}
	full := map[Dataset][]int{
		TC:      {20, 40, 60, 120, 240},
		Explain: {50, 100, 200, 400, 800},
		IRIS:    {100, 200, 400, 800, 1600},
		AMIE:    {8, 12, 16, 24},
	}
	if scale == Full {
		return full[ds]
	}
	return quick[ds]
}

// buildWorkload constructs one dataset instance of the given size via
// workload.ByName (see there for the per-dataset meaning of size). It
// returns an error — not a panic — for unknown dataset names and invalid
// sizes, so driver CLIs (cmbench) fail with a usable message.
//
// Following Section V-A, TC / Explain / IRIS rules get probabilities drawn
// uniformly from [0, 1] (deterministically per instance); AMIE keeps its
// mined-confidence weights ("weights reflecting the rule confidence").
// TC's weights are one fixed U[0,1]³ draw baked into workload.ByName.
func buildWorkload(ds Dataset, size int, rng *rand.Rand) (workload.Workload, error) {
	w, err := workload.ByName(string(ds), size, rng)
	if err != nil {
		return workload.Workload{}, err
	}
	if ds == Explain || ds == IRIS {
		w.Program = workload.RandomizeWeights(w.Program, rng)
	}
	return w, nil
}

// feasibleUnsampled reports whether the algorithms that materialize
// unsampled (sub)graphs — NaiveCM, MagicCM, Magic^G CM — are attempted on
// an instance with nOut derived tuples. Mirroring the paper's evaluation:
// on AMIE only Magic^S CM is ever feasible, and on TC the n³ rule-
// instantiation fan-out makes the unsampled algorithms infeasible beyond a
// cutoff (the paper's "generating the WD graph for NaiveCM was infeasible
// beyond 1M tuples"); those cells are reported as missing.
func feasibleUnsampled(ds Dataset, scale Scale, nOut int) bool {
	if ds == AMIE {
		return false
	}
	if ds == TC && scale == Full && nOut > 5000 {
		return false
	}
	return true
}

// evalOutputs evaluates the workload once on a scratch database and
// returns (a) the total number of derived idb tuples and (b) all derived
// tuples as atoms, for target sampling.
func evalOutputs(w workload.Workload) (int, []ast.Atom, error) {
	scratch := w.DB.Scratch(w.Program.EDBs())
	eng, err := engine.New(w.Program, scratch)
	if err != nil {
		return 0, nil, err
	}
	if _, err := eng.Run(engine.Options{}); err != nil {
		return 0, nil, err
	}
	total := 0
	var outputs []ast.Atom
	for _, pred := range w.Program.IDBs() {
		rel, ok := scratch.Lookup(pred)
		if !ok {
			continue
		}
		total += rel.Len()
		for i := 0; i < rel.Len(); i++ {
			outputs = append(outputs, scratch.AtomOf(rel, db.TupleID(i)))
		}
	}
	return total, outputs, nil
}

// sampleTargets picks up to n distinct output tuples uniformly at random —
// the paper's "randomly select 100 output tuples as T2".
func sampleTargets(outputs []ast.Atom, n int, rng *rand.Rand) []ast.Atom {
	if len(outputs) <= n {
		out := make([]ast.Atom, len(outputs))
		copy(out, outputs)
		return out
	}
	perm := rng.Perm(len(outputs))
	out := make([]ast.Atom, n)
	for i := 0; i < n; i++ {
		out[i] = outputs[perm[i]]
	}
	return out
}

// targetCount is the paper's default |T2|.
func targetCount(scale Scale) int {
	if scale == Full {
		return 100
	}
	return 30
}
