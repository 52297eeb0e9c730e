package wdgraph_test

// Layout pins: every node id, label, tuple, edge order and edge weight of
// a set of reference graphs, hashed through DebugString. The RR walkers
// consume random numbers in per-node edge order, so any change to node
// numbering or edge order changes solver output; these hashes catch it at
// the graph level instead of through solve-level fingerprints.

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand/v2"
	"testing"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/magic"
	"contribmax/internal/wdgraph"
	"contribmax/internal/workload"
)

// mergeProgram's Magic transform adorns p twice (p_bf from the first body
// atom of m2, p_bb from the second). With queries q(a) and q(b), the fact
// p(b, a) is derived in both adorned relations and the two adorned copies
// of m1 fire on the same body fact, so the projected graph must merge both
// the fact node and the instantiation node.
const (
	mergeProgram = `
		0.9 m1: p(X, Y) :- e(X, Y).
		0.8 m2: q(X) :- p(X, Y), p(Y, X).
	`
	mergeFacts = `e(a, b). e(b, a). e(b, c). e(c, a).`
)

var mergeTargets = []ast.Atom{ast.NewAtom("q", ast.C("a")), ast.NewAtom("q", ast.C("b"))}

// layoutInstance is one reference program and a generator for fresh
// copies of its database (identity builds evaluate in place, so every
// build gets its own copy). The Magic builds query targets, or, when it is
// nil, two derived facts of pred.
type layoutInstance struct {
	name    string
	prog    *ast.Program
	db      func() *db.Database
	pred    string
	targets []ast.Atom
}

func layoutInstances(t *testing.T) []layoutInstance {
	return []layoutInstance{
		{
			name: "tc",
			prog: workload.TCProgram(0.9, 0.6),
			db: func() *db.Database {
				return workload.RandomGraphM(10, 16, rand.New(rand.NewPCG(1, 1)))
			},
			pred: "tc",
		},
		{
			name: "explain",
			prog: workload.ExplainProgram(),
			db: func() *db.Database {
				return workload.ExplainDB(25, 2, rand.New(rand.NewPCG(2, 2)))
			},
			pred: "related",
		},
		{
			name: "amie",
			prog: workload.AMIEProgram(),
			db: func() *db.Database {
				return workload.AMIEDB(workload.AMIEDBParams{Countries: 3}, rand.New(rand.NewPCG(3, 3)))
			},
			pred: "connected",
		},
		{
			name:    "merge",
			prog:    mustProgram(t, mergeProgram),
			db:      func() *db.Database { return mustDB(t, mergeFacts) },
			targets: mergeTargets,
		},
	}
}

// identityGraph builds the full WD graph of Definition 3.1 (edb preload,
// identity projection) and returns it with the evaluated database.
func identityGraph(t *testing.T, prog *ast.Program, d *db.Database) *wdgraph.Graph {
	t.Helper()
	g, _, err := wdgraph.Build(prog, d, wdgraph.BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// magicGraph builds the Magic-projected graph for targets over a scratch
// database that shares d's edb relations, the way the Magic solvers do.
// gateSeed != 0 samples the graph with a HashGate (one Magic^S RR
// subgraph). It also returns the scratch database.
func magicGraph(t *testing.T, prog *ast.Program, d *db.Database, targets []ast.Atom, gateSeed uint64) (*wdgraph.Graph, *db.Database) {
	t.Helper()
	tr, err := magic.Transform(prog, targets)
	if err != nil {
		t.Fatal(err)
	}
	scratch := d.CloneSchema()
	for _, pred := range prog.EDBs() {
		if rel, ok := d.Lookup(pred); ok {
			scratch.Attach(rel)
		}
	}
	eng, err := engine.New(tr.Program, scratch)
	if err != nil {
		t.Fatal(err)
	}
	var gate engine.FireGate
	if gateSeed != 0 {
		gate = magic.NewHashGate(tr, eng, gateSeed)
	}
	b := wdgraph.NewBuilder(tr.Projection())
	if _, err := eng.Run(engine.Options{Listener: b.Listener(), Gate: gate}); err != nil {
		t.Fatal(err)
	}
	return b.Graph(), scratch
}

// layoutTargets picks two derived facts of pred from an evaluated
// database: the ones a third and two thirds of the way through insertion
// order.
func layoutTargets(t *testing.T, evaluated *db.Database, pred string) []ast.Atom {
	t.Helper()
	facts := evaluated.Facts(pred)
	if len(facts) < 3 {
		t.Fatalf("%s has %d facts, want >= 3", pred, len(facts))
	}
	return []ast.Atom{facts[len(facts)/3], facts[2*len(facts)/3]}
}

func layoutHash(g *wdgraph.Graph, symbols *db.SymbolTable) string {
	sum := sha256.Sum256([]byte(g.DebugString(symbols)))
	return hex.EncodeToString(sum[:8])
}

func TestGraphLayoutPinned(t *testing.T) {
	const gateSeed = 0x5eed
	// The expected values predate the builder's fact memo and flat node
	// table, so they pin that neither moved a node or an edge. Change them
	// only together with a deliberate re-golden of the solver outputs.
	want := map[string]struct {
		nodes, edges int
		hash         string
	}{
		"tc/identity":           {1148, 3064, "041f27f9a786cb90"},
		"tc/magic":              {1148, 3064, "0c5ec85bd6b7622f"},
		"tc/magic-sampled":      {762, 1906, "10b2597c8dbc8fa3"},
		"explain/identity":      {1493, 2772, "6e24d4808e5f6291"},
		"explain/magic":         {154, 224, "0e2e96799d2bf657"},
		"explain/magic-sampled": {76, 77, "a93d2da9ec8b3c75"},
		"amie/identity":         {2510, 3984, "c23594e3bdb4be5d"},
		"amie/magic":            {35, 67, "afca4da2a1474542"},
		"amie/magic-sampled":    {18, 24, "86deaad58a216aa8"},
		"merge/identity":        {16, 14, "cedc460770757f6a"},
		"merge/magic":           {13, 12, "ce061de69d147f3c"},
		"merge/magic-sampled":   {9, 6, "3e9fa5d25e887b0c"},
	}
	for _, inst := range layoutInstances(t) {
		full := inst.db()
		fullGraph := identityGraph(t, inst.prog, full)
		targets := inst.targets
		if targets == nil {
			targets = layoutTargets(t, full, inst.pred)
		}
		magicFull, _ := magicGraph(t, inst.prog, inst.db(), targets, 0)
		magicSampled, _ := magicGraph(t, inst.prog, inst.db(), targets, gateSeed)
		for _, c := range []struct {
			kind string
			g    *wdgraph.Graph
		}{{"identity", fullGraph}, {"magic", magicFull}, {"magic-sampled", magicSampled}} {
			key := inst.name + "/" + c.kind
			got := layoutHash(c.g, full.Symbols())
			w, ok := want[key]
			if !ok || c.g.NumNodes() != w.nodes || c.g.NumEdges() != w.edges || got != w.hash {
				t.Errorf("%s: nodes=%d edges=%d hash=%s, want %+v", key, c.g.NumNodes(), c.g.NumEdges(), got, w)
			}
		}
	}
}

// TestGraphLayoutMergeCoversAdornments checks that the merge instance
// really exercises the merge path the pins above cover: one fact derived
// in two adorned relations of the same predicate, and one projected fact
// node for it.
func TestGraphLayoutMergeCoversAdornments(t *testing.T) {
	prog := mustProgram(t, mergeProgram)
	d := mustDB(t, mergeFacts)
	g, scratch := magicGraph(t, prog, d, mergeTargets, 0)

	seen := map[string]int{} // tuple key -> adorned relations holding it
	for _, name := range scratch.RelationNames() {
		orig, _, isMagic, ok := magic.SplitAdorned(name)
		if !ok || isMagic || orig != "p" {
			continue
		}
		rel, _ := scratch.Lookup(name)
		for i := 0; i < rel.Len(); i++ {
			seen[rel.Tuple(db.TupleID(i)).Key()]++
		}
	}
	shared := 0
	for _, n := range seen {
		if n > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatalf("no p fact is derived under two adornments: %v", scratch.RelationNames())
	}
	pNodes := 0
	g.FactNodes(func(_ wdgraph.NodeID, n wdgraph.Node) {
		if n.Pred == "p" {
			pNodes++
		}
	})
	if pNodes != len(seen) {
		t.Errorf("p fact nodes = %d, want %d (one per distinct tuple)", pNodes, len(seen))
	}
}
