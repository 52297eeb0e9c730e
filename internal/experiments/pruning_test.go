package experiments

import (
	"math/rand/v2"
	"testing"

	"contribmax/internal/analysis"
)

// TestPruningSummaries pins the dead-rule analysis of each dataset's
// program against the query predicate its figures target: rules outside
// the root's dependency cone plus zero-probability rules. TC and Explain
// are fully live; the IRIS and AMIE rule sets carry predicates outside
// their flagship cones. The programs are fixed per dataset (size only
// scales the databases), so the smallest quick instance suffices and any
// change in a count means a workload program changed.
func TestPruningSummaries(t *testing.T) {
	want := map[Dataset]struct {
		root          string
		pruned, total int
	}{
		TC:      {"tc", 0, 3},
		Explain: {"related", 0, 3},
		IRIS:    {"mayMeet", 2, 8},
		AMIE:    {"influences", 18, 23},
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for _, ds := range Datasets {
		w, err := buildWorkload(ds, sizesFor(ds, Quick)[0], rng)
		if err != nil {
			t.Fatal(err)
		}
		pin := want[ds]
		pr := analysis.Prune(w.Program, analysis.PruneOptions{
			Roots:    []string{pin.root},
			ZeroProb: true,
		})
		if len(pr.Pruned) != pin.pruned || pr.Total != pin.total {
			t.Errorf("%s, root %s: rules pruned/total %d/%d, pinned %d/%d",
				ds, pin.root, len(pr.Pruned), pr.Total, pin.pruned, pin.total)
		}
	}
}
