package cm

import (
	"fmt"
	"math"
	"math/rand/v2"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/wdgraph"
)

// Estimator evaluates the contribution function c(S ⇝ T2) of Definition
// 3.4 by Monte-Carlo simulation over the full WD graph: each sample draws a
// random subgraph (lazily, along the forward reachability frontier of S)
// and counts the targets reached; the estimate is the sample mean.
//
// Build an Estimator once per (program, database, T2) and reuse it across
// seed sets; construction materializes the full WD graph, so it is meant
// for validation and the Section V-C case study, not for large instances.
type Estimator struct {
	database *db.Database
	g        *wdgraph.Graph
	walker   *wdgraph.Walker
	targets  []wdgraph.NodeID // node ids of derivable targets
	isTarget []bool           // indexed by node id
}

// NewEstimator builds the full WD graph for (prog, database) and resolves
// the target atoms. Input.K is not used and may be left zero-valued by
// setting it to 1.
func NewEstimator(in Input) (*Estimator, error) {
	inst, err := prepare(in, Options{})
	if err != nil {
		return nil, err
	}
	g, _, err := wdgraph.Build(in.Program, in.DB.Scratch(in.Program.EDBs()), wdgraph.BuildConfig{})
	if err != nil {
		return nil, err
	}
	e := &Estimator{
		database: in.DB,
		g:        g,
		walker:   wdgraph.NewWalker(g),
		isTarget: make([]bool, g.NumNodes()),
	}
	for _, t := range inst.targets {
		if id, ok := g.FactID(t.Pred, t.Tuple); ok {
			e.targets = append(e.targets, id)
			e.isTarget[id] = true
		}
		// A target absent from the graph is not derivable and contributes 0
		// to every seed set.
	}
	return e, nil
}

// Graph exposes the underlying full WD graph (e.g. for size reporting).
func (e *Estimator) Graph() *wdgraph.Graph { return e.g }

// Contribution estimates c(S ⇝ T2) with the given number of Monte-Carlo
// samples. Seeds that are not nodes of the WD graph contribute nothing and
// are ignored. The standard error of the estimate is at most
// |T2| / (2·sqrt(samples)).
func (e *Estimator) Contribution(seeds []ast.Atom, samples int, rng *rand.Rand) (float64, error) {
	mean, _, err := e.ContributionCI(seeds, samples, rng)
	return mean, err
}

// ContributionCI is like Contribution but also returns the standard error
// of the estimate (sample standard deviation / sqrt(samples)), so callers
// can attach a confidence interval: mean ± z·stderr.
func (e *Estimator) ContributionCI(seeds []ast.Atom, samples int, rng *rand.Rand) (mean, stderr float64, err error) {
	ids := make([]wdgraph.NodeID, 0, len(seeds))
	for _, s := range seeds {
		id, ok, err := e.factNode(s)
		if err != nil {
			return 0, 0, err
		}
		if ok {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 || len(e.targets) == 0 || samples <= 0 {
		return 0, 0, nil
	}
	var sum, sumSq float64
	for s := 0; s < samples; s++ {
		reached := 0
		e.walker.ForwardReach(ids, rng, func(v wdgraph.NodeID) {
			if e.isTarget[v] {
				reached++
			}
		})
		x := float64(reached)
		sum += x
		sumSq += x * x
	}
	n := float64(samples)
	mean = sum / n
	if samples > 1 {
		variance := (sumSq - sum*sum/n) / (n - 1)
		if variance < 0 {
			variance = 0
		}
		stderr = math.Sqrt(variance / n)
	}
	return mean, stderr, nil
}

func (e *Estimator) factNode(a ast.Atom) (wdgraph.NodeID, bool, error) {
	if !a.IsGround() {
		return 0, false, fmt.Errorf("cm: estimator seed %s is not ground", a)
	}
	t, err := e.database.InternAtom(a)
	if err != nil {
		return 0, false, err
	}
	id, ok := e.g.FactID(a.Predicate, t)
	return id, ok, nil
}
