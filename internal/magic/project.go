package magic

import (
	"context"
	"fmt"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/wdgraph"
)

// Projection returns the WD-graph projection for a transformed program:
// only modified rules produce instantiation nodes (labeled and weighted by
// their origin rule), adorned predicates map back to the origin predicate,
// magic predicates are dropped from rule bodies, and the leading magic atom
// of each modified rule is excluded via KeepBody. The graph built under
// this projection is (per Proposition 4.4) isomorphic to the subgraph of
// the full WD graph reachable backwards from the query tuples.
func (t *Transformed) Projection() *wdgraph.Projection {
	meta := t.Meta
	return &wdgraph.Projection{
		IncludeRule: func(i int) bool { return meta[i].Kind == Modified },
		RuleLabel:   func(i int) string { return meta[i].Origin },
		RuleWeight:  func(i int) float64 { return meta[i].OriginProb },
		MapPred: func(pred string) (string, bool, bool) {
			orig, ok := t.OrigPred(pred)
			if !ok {
				return "", false, false
			}
			return orig, t.OrigEDB(orig), true
		},
		KeepBody: func(i int) []int { return meta[i].KeepBody },
	}
}

// RelevantGraph materializes the WD subgraph relevant to a ground target
// and locates the target's node in it: the Magic-Sets subgraph of the
// target (Proposition 4.4), or, for a program with negation, which the
// transformation does not accept, the full graph of the positive rule
// firings. The evaluation runs on a scratch database sharing the program's
// edb relations, so database gains no derived facts. found is false when
// the target is not derivable.
func RelevantGraph(ctx context.Context, prog *ast.Program, database *db.Database, target ast.Atom) (g *wdgraph.Graph, root wdgraph.NodeID, found bool, err error) {
	if !target.IsGround() {
		return nil, 0, false, fmt.Errorf("magic: target %s is not ground", target)
	}
	scratch := database.Scratch(prog.EDBs())
	if prog.HasNegation() {
		g, _, err = wdgraph.Build(prog, scratch, wdgraph.BuildConfig{Ctx: ctx})
	} else {
		g, err = subgraph(ctx, prog, scratch, target)
	}
	if err != nil {
		return nil, 0, false, err
	}
	tuple, err := database.InternAtom(target)
	if err != nil {
		return nil, 0, false, err
	}
	root, found = g.FactID(target.Predicate, tuple)
	return g, root, found, nil
}

// subgraph evaluates target's Magic program over scratch and returns the
// projected subgraph.
func subgraph(ctx context.Context, prog *ast.Program, scratch *db.Database, target ast.Atom) (*wdgraph.Graph, error) {
	tr, err := Transform(prog, []ast.Atom{target})
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(tr.Program, scratch)
	if err != nil {
		return nil, err
	}
	b := wdgraph.NewBuilder(tr.Projection())
	if _, err := eng.Run(engine.Options{Listener: b.Listener(), Context: ctx}); err != nil {
		return nil, err
	}
	return b.Graph(), nil
}
