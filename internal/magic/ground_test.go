package magic_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/engine/difftest"
	"contribmax/internal/magic"
	"contribmax/internal/wdgraph"
	"contribmax/internal/workload"
)

// sampledRun is what one sampled run of a target's Magic program yields
// for Magic^S CM: the edb facts its RR set is drawn from, whether the
// target is a node of the run's graph, the graph's size, and whether the
// adorned query fact was derived (DerivationProbability's event).
type sampledRun struct {
	rr           []string
	present      bool
	nodes, edges int
	derived      bool
}

func (r sampledRun) String() string {
	return fmt.Sprintf("present=%v derived=%v nodes=%d edges=%d rr=%v", r.present, r.derived, r.nodes, r.edges, r.rr)
}

func renderFact(d *db.Database, pred string, t db.Tuple) string {
	var sb strings.Builder
	sb.WriteString(pred)
	sb.WriteByte('(')
	for i, s := range t {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(d.Symbols().Name(s))
	}
	sb.WriteByte(')')
	return sb.String()
}

// gatedRun evaluates tr with the engine gated by NewHashGate(seed) and
// reads the run off the projected WD graph, the way Magic^S CM's per-RR
// path does.
func gatedRun(t testing.TB, prog *ast.Program, d *db.Database, tr *magic.Transformed, target ast.Atom, seed uint64) sampledRun {
	t.Helper()
	scratch := d.Scratch(prog.EDBs())
	eng, err := engine.New(tr.Program, scratch)
	if err != nil {
		t.Fatal(err)
	}
	b := wdgraph.NewBuilder(tr.Projection())
	if _, err := eng.Run(engine.Options{Listener: b.Listener(), Gate: magic.NewHashGate(tr, eng, seed)}); err != nil {
		t.Fatal(err)
	}
	g := b.Graph()
	tuple, err := d.InternAtom(target)
	if err != nil {
		t.Fatal(err)
	}
	out := sampledRun{nodes: g.NumNodes(), edges: g.NumEdges()}
	if root, ok := g.FactID(target.Predicate, tuple); ok {
		out.present = true
		wdgraph.NewWalker(g).ReverseClosure(root, func(v wdgraph.NodeID) {
			if n := g.Node(v); n.Kind == wdgraph.FactNode && n.EDB {
				out.rr = append(out.rr, renderFact(d, n.Pred, n.Tuple))
			}
		})
	}
	if rel, ok := scratch.Lookup(tr.Queries[0].Predicate); ok {
		_, out.derived = rel.Contains(tuple)
	}
	slices.Sort(out.rr)
	return out
}

// grounded is a Grounding plus what reading a propagation back needs,
// per query of the grounded program.
type grounded struct {
	g       *magic.Grounding
	edbName map[int32]string
	queries []groundedQuery
}

// groundedQuery locates one query of a grounded program: its seed
// instantiation, its projected root and its adorned query fact.
type groundedQuery struct {
	from    int32
	root    int32
	rootOK  bool
	query   int32
	queryOK bool
}

// compileShape compiles tr's shape for d's symbol table.
func compileShape(t testing.TB, d *db.Database, tr *magic.Transformed) *engine.Compiled {
	t.Helper()
	c, err := engine.Compile(tr.Shape(), d.Symbols(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// boundShape binds c, the compiled shape of tr, a transform of prog, over
// a scratch copy of d holding the queries targets, in order, as Magic^S CM
// binds its runs.
func boundShape(t testing.TB, prog *ast.Program, d *db.Database, c *engine.Compiled, tr *magic.Transformed, targets []ast.Atom) *engine.Engine {
	t.Helper()
	scratch := d.Scratch(prog.EDBs())
	for _, target := range targets {
		tuple, err := d.InternAtom(target)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.LoadQueries(scratch, target.Predicate, tuple); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := c.Bind(scratch)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// groundProgram grounds the shape of tr, a transform of prog, with the
// queries targets (in order) over d without a cap.
func groundProgram(t testing.TB, prog *ast.Program, d *db.Database, tr *magic.Transformed, targets []ast.Atom) *grounded {
	t.Helper()
	eng := boundShape(t, prog, d, compileShape(t, d, tr), tr, targets)
	g, st, err := magic.Ground(tr, eng, magic.GroundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Aborted || g == nil {
		t.Fatal("uncapped grounding aborted")
	}
	if g.Instantiations() != int(st.Engine.Instantiations) {
		t.Fatalf("grounding recorded %d instantiations, engine fired %d", g.Instantiations(), st.Engine.Instantiations)
	}
	out := &grounded{g: g, edbName: map[int32]string{}}
	g.EDBFacts(func(pf int32, pred string, tu db.Tuple) { out.edbName[pf] = renderFact(d, pred, tu) })
	for q, target := range targets {
		tuple, err := d.InternAtom(target)
		if err != nil {
			t.Fatal(err)
		}
		gq := groundedQuery{from: g.Seed(q)}
		if r := g.RuleOf(gq.from); tr.Meta[r].Kind != magic.SeedRule {
			t.Fatalf("query %d (%s): seed instantiation of %v rule %d, want a seed rule", q, target, tr.Meta[r].Kind, r)
		}
		gq.root, gq.rootOK = g.ProjectedFact(target.Predicate, tuple)
		gq.query, gq.queryOK = g.Fact(magic.AdornedPred(target.Predicate, magic.AllBound(target.Arity())), tuple)
		out.queries = append(out.queries, gq)
	}
	return out
}

func groundTarget(t testing.TB, prog *ast.Program, d *db.Database, tr *magic.Transformed, target ast.Atom) *grounded {
	t.Helper()
	return groundProgram(t, prog, d, tr, []ast.Atom{target})
}

// run propagates the sampled run of query q with the given gate seed.
func (gr *grounded) run(p *magic.Propagator, q int, seed uint64) sampledRun {
	gq := gr.queries[q]
	p.Propagate(gr.g, seed, gq.from)
	var out sampledRun
	out.nodes, out.edges = p.GraphSize()
	if gq.rootOK {
		var reached []int32
		reached, out.present = p.AppendReached(nil, gq.root)
		for _, pf := range reached {
			out.rr = append(out.rr, gr.edbName[pf])
		}
	}
	out.derived = gq.queryOK && p.Derived(gq.query)
	slices.Sort(out.rr)
	return out
}

// checkGroundedVsGated compares, per gate seed, propagation over one
// grounding with the engine-gated run; it returns the mismatch count.
func checkGroundedVsGated(t testing.TB, prog *ast.Program, d *db.Database, target ast.Atom, seeds []uint64) int {
	t.Helper()
	tr, err := magic.Transform(prog, []ast.Atom{target})
	if err != nil {
		t.Fatal(err)
	}
	gr := groundTarget(t, prog, d, tr, target)
	p := &magic.Propagator{}
	bad := 0
	for _, seed := range seeds {
		want := gatedRun(t, prog, d, tr, target, seed)
		if got := gr.run(p, 0, seed); got.String() != want.String() {
			bad++
			t.Errorf("target %s seed %#x:\n  grounded %s\n  gated    %s\nprogram:\n%s", target, seed, got, want, prog)
		}
	}
	return bad
}

// byPredicate splits targets by predicate, in order of first occurrence.
func byPredicate(targets []ast.Atom) [][]ast.Atom {
	var out [][]ast.Atom
	at := map[string]int{}
	for _, a := range targets {
		k, ok := at[a.Predicate]
		if !ok {
			k = len(out)
			at[a.Predicate] = k
			out = append(out, nil)
		}
		out[k] = append(out[k], a)
	}
	return out
}

// checkPredicateGroundedVsGated grounds targets once per predicate (one
// multi-seed run each, bound as Magic^S binds it: the compiled shape of
// the predicate's first target's transform, with every target's query
// loaded) and compares, per target and gate seed,
// propagation from the target's own seed with the engine-gated run of the
// target's single-query program; it returns the mismatch count.
func checkPredicateGroundedVsGated(t testing.TB, prog *ast.Program, d *db.Database, targets []ast.Atom, seedsPerTarget int, rng *rand.Rand) int {
	t.Helper()
	p := &magic.Propagator{}
	bad := 0
	for _, group := range byPredicate(targets) {
		first, err := magic.Transform(prog, group[:1])
		if err != nil {
			t.Fatal(err)
		}
		gr := groundProgram(t, prog, d, first, group)
		for q, target := range group {
			single, err := magic.Transform(prog, []ast.Atom{target})
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range gateSeeds(rng, seedsPerTarget) {
				want := gatedRun(t, prog, d, single, target, seed)
				if got := gr.run(p, q, seed); got.String() != want.String() {
					bad++
					t.Errorf("target %s (query %d of %d) seed %#x:\n  grounded %s\n  gated    %s\nprogram:\n%s",
						target, q, len(group), seed, got, want, prog)
				}
			}
		}
	}
	return bad
}

// derivedTargets evaluates prog over d and returns up to n derived idb
// facts, chosen by rng.
func derivedTargets(t testing.TB, prog *ast.Program, d *db.Database, n int, rng *rand.Rand) []ast.Atom {
	t.Helper()
	scratch := d.Scratch(prog.EDBs())
	eng, err := engine.New(prog, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(engine.Options{}); err != nil {
		t.Fatal(err)
	}
	var all []ast.Atom
	for _, name := range scratch.RelationNames() {
		if prog.IsIDB(name) {
			all = append(all, scratch.Facts(name)...)
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:min(n, len(all))]
}

// randomProbabilities gives every rule a probability in [0.15, 0.95],
// one rule in five keeping probability 1.
func randomProbabilities(prog *ast.Program, rng *rand.Rand) {
	for i := range prog.Rules {
		if rng.IntN(5) == 0 {
			prog.Rules[i].Prob = 1
		} else {
			prog.Rules[i].Prob = 0.15 + 0.8*rng.Float64()
		}
	}
}

// generatedCase draws a positive difftest program with random rule
// probabilities, its database and up to nTargets derived targets; ok is
// false when the draw has negation or derives nothing.
func generatedCase(t testing.TB, rng *rand.Rand, nTargets int) (*ast.Program, *db.Database, []ast.Atom, bool) {
	t.Helper()
	spec := difftest.Generate(rng)
	if spec.Prog.HasNegation() {
		return nil, nil, nil, false
	}
	randomProbabilities(spec.Prog, rng)
	d, err := spec.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	targets := derivedTargets(t, spec.Prog, d, nTargets, rng)
	return spec.Prog, d, targets, len(targets) > 0
}

func gateSeeds(rng *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

// TestGroundedRRMatchesGated is the differential test of the grounding:
// for random positive programs and small instances of the benchmark
// families, every propagation must reproduce the engine-gated run's RR set
// (as a set), target verdict, adorned-query verdict, and projected node
// and edge counts — over each target's own grounding, and, on a second
// draw of programs and targets, from each target's own seed over one
// multi-seed grounding of its predicate's targets.
func TestGroundedRRMatchesGated(t *testing.T) {
	const seedsPerTarget = 25
	rng := rand.New(rand.NewPCG(0x6A0, 0x0D))
	programs, bad := 0, 0
	for programs < 40 {
		prog, d, targets, ok := generatedCase(t, rng, 3)
		if !ok {
			continue
		}
		programs++
		for _, target := range targets {
			bad += checkGroundedVsGated(t, prog, d, target, gateSeeds(rng, seedsPerTarget))
		}
	}
	families := []struct {
		name string
		size int
	}{{"TC", 12}, {"Explain", 40}, {"IRIS", 60}, {"AMIE", 4}}
	for _, f := range families {
		w, err := workload.ByName(f.name, f.size, rand.New(rand.NewPCG(uint64(f.size), 7)))
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range derivedTargets(t, w.Program, w.DB, 4, rng) {
			bad += checkGroundedVsGated(t, w.Program, w.DB, target, gateSeeds(rng, seedsPerTarget))
		}
	}

	// Per predicate: more targets per program, so that predicates share
	// groundings, and fewer gate seeds per target.
	const seedsPerPredTarget = 10
	rng = rand.New(rand.NewPCG(0x6A1, 0x0D))
	multi := 0
	countMulti := func(targets []ast.Atom) {
		for _, group := range byPredicate(targets) {
			if len(group) > 1 {
				multi++
			}
		}
	}
	for programs = 0; programs < 40; {
		prog, d, targets, ok := generatedCase(t, rng, 6)
		if !ok {
			continue
		}
		programs++
		countMulti(targets)
		bad += checkPredicateGroundedVsGated(t, prog, d, targets, seedsPerPredTarget, rng)
	}
	for _, f := range families {
		w, err := workload.ByName(f.name, f.size, rand.New(rand.NewPCG(uint64(f.size), 7)))
		if err != nil {
			t.Fatal(err)
		}
		targets := derivedTargets(t, w.Program, w.DB, 8, rng)
		countMulti(targets)
		bad += checkPredicateGroundedVsGated(t, w.Program, w.DB, targets, seedsPerPredTarget, rng)
	}
	if multi < 20 {
		t.Errorf("only %d predicates had several targets; the check needs multi-seed groundings", multi)
	}
	if bad > 0 {
		t.Fatalf("%d mismatches", bad)
	}
}

// TestGroundingCapAborts checks the cap: a grounding allowed fewer
// instantiations than the unsampled run fires reports Aborted and no
// program; one allowed exactly that many completes.
func TestGroundingCapAborts(t *testing.T) {
	prog := mustProgram(t, tcProgram)
	d := mustDB(t, "e(a, b). e(b, c). e(c, d). e(d, a).")
	target := atom(t, "tc(a, c)")
	tr, err := magic.Transform(prog, []ast.Atom{target})
	if err != nil {
		t.Fatal(err)
	}
	c := compileShape(t, d, tr)
	ground := func(limit int64) (*magic.Grounding, magic.GroundStats) {
		eng := boundShape(t, prog, d, c, tr, []ast.Atom{target})
		g, st, err := magic.Ground(tr, eng, magic.GroundOptions{Cap: limit})
		if err != nil {
			t.Fatal(err)
		}
		return g, st
	}
	full, st := ground(0)
	n := int64(full.Instantiations())
	if g, st := ground(n); g == nil || st.Aborted {
		t.Fatalf("cap %d = the run's own count aborted", n)
	}
	g, capped := ground(n - 1)
	if g != nil || !capped.Aborted {
		t.Fatalf("cap %d below the run's %d instantiations did not abort", n-1, n)
	}
	if capped.Engine.Instantiations != n-1 {
		t.Errorf("aborted run fired %d instantiations, want the cap %d", capped.Engine.Instantiations, n-1)
	}
	if capped.Size <= 0 || capped.Size > st.Size {
		t.Errorf("aborted size %d, want in (0, %d]", capped.Size, st.Size)
	}
}

// amie4Grounding grounds one multi-seed program of an AMIE-4 instance:
// the targets of the predicate with the most of 12 derived targets.
func amie4Grounding(t *testing.T) *grounded {
	t.Helper()
	w, err := workload.ByName("AMIE", 4, rand.New(rand.NewPCG(4, 7)))
	if err != nil {
		t.Fatal(err)
	}
	var group []ast.Atom
	for _, g := range byPredicate(derivedTargets(t, w.Program, w.DB, 12, rand.New(rand.NewPCG(5, 5)))) {
		if len(g) > len(group) {
			group = g
		}
	}
	if len(group) < 3 {
		t.Fatalf("largest predicate group has %d targets; pick another draw", len(group))
	}
	tr, err := magic.Transform(w.Program, group)
	if err != nil {
		t.Fatal(err)
	}
	return groundProgram(t, w.Program, w.DB, tr, group)
}

// TestPropagatorsShareGrounding reads one multi-seed Grounding from
// several goroutines, each with its own Propagator, and checks every
// result against a sequential pass (run with -race: a propagation writes
// only its propagator's state).
func TestPropagatorsShareGrounding(t *testing.T) {
	gr := amie4Grounding(t)
	type draw struct {
		q    int
		seed uint64
	}
	var draws []draw
	for i, seed := range gateSeeds(rand.New(rand.NewPCG(5, 6)), 64) {
		draws = append(draws, draw{i % len(gr.queries), seed})
	}
	want := make([]string, len(draws))
	p := &magic.Propagator{}
	for i, d := range draws {
		want[i] = gr.run(p, d.q, d.seed).String()
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4*len(draws))
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &magic.Propagator{}
			for k := range draws {
				i := (k + w*17) % len(draws)
				if got := gr.run(p, draws[i].q, draws[i].seed).String(); got != want[i] {
					errs <- fmt.Sprintf("worker %d draw %d: %s, want %s", w, i, got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestPropagatorEpochWrap forces a propagator's epoch to wrap between
// propagations from different seeds of one multi-seed grounding: every
// propagation must still equal a fresh propagator's, so no mark or lazily
// reset counter stamped before the wrap may pass for a current one.
func TestPropagatorEpochWrap(t *testing.T) {
	gr := amie4Grounding(t)
	seeds := gateSeeds(rand.New(rand.NewPCG(7, 7)), 6)
	check := func(p *magic.Propagator, q int, seed uint64) {
		t.Helper()
		want := gr.run(&magic.Propagator{}, q, seed).String()
		if got := gr.run(p, q, seed).String(); got != want {
			t.Errorf("epoch %d, query %d, seed %#x: %s, want %s", p.Epoch(), q, seed, got, want)
		}
	}
	p := &magic.Propagator{}
	// Stamp the first epochs from every query.
	for q := range gr.queries {
		check(p, q, seeds[0])
	}
	p.SetEpoch(math.MaxUint32 - 2)
	for k, seed := range seeds {
		check(p, (k+1)%len(gr.queries), seed)
	}
	if p.Epoch() > uint32(len(seeds)) {
		t.Fatalf("epoch %d: the propagator did not wrap", p.Epoch())
	}
}

// FuzzGroundedVsGated checks the differential property on programs drawn
// from the difftest generator: the fuzz input seeds the generator, the
// target choice and the gate seeds.
func FuzzGroundedVsGated(f *testing.F) {
	for _, s := range []uint64{1, 2, 3, 0x6A0, 0xBEEF, 1 << 40} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := rand.New(rand.NewPCG(seed, 0xF0))
		prog, d, targets, ok := generatedCase(t, rng, 2)
		if !ok {
			return
		}
		for _, target := range targets {
			checkGroundedVsGated(t, prog, d, target, gateSeeds(rng, 8))
		}
		checkPredicateGroundedVsGated(t, prog, d, targets, 4, rng)
	})
}

// Benchmark sinks keep the measured results live.
var (
	sinkGraph  *wdgraph.Graph
	sinkGround *magic.Grounding
	sinkNodes  int
)

// amie8Targets builds a magics-amie-shaped instance (AMIE-8) and returns
// a few of its derived targets and their transforms.
func amie8Targets(b *testing.B) (*ast.Program, *db.Database, []ast.Atom, []*magic.Transformed) {
	b.Helper()
	w, err := workload.ByName("AMIE", 8, rand.New(rand.NewPCG(8, 1)))
	if err != nil {
		b.Fatal(err)
	}
	targets := derivedTargets(b, w.Program, w.DB, 8, rand.New(rand.NewPCG(8, 2)))
	var trs []*magic.Transformed
	for _, target := range targets {
		tr, err := magic.Transform(w.Program, []ast.Atom{target})
		if err != nil {
			b.Fatal(err)
		}
		trs = append(trs, tr)
	}
	return w.Program, w.DB, targets, trs
}

// BenchmarkGatedRun times Magic^S's per-RR evaluation on AMIE-8 targets
// (compile, gated fixpoint, WD-graph builder), per attempted
// instantiation. With BenchmarkGrounding it gives the per-instantiation
// cost ratio behind the grounding cap factor in internal/cm.
func BenchmarkGatedRun(b *testing.B) {
	prog, d, _, trs := amie8Targets(b)
	var attempted int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := trs[i%len(trs)]
		eng, err := engine.New(tr.Program, d.Scratch(prog.EDBs()))
		if err != nil {
			b.Fatal(err)
		}
		bld := wdgraph.NewBuilder(tr.Projection())
		st, err := eng.Run(engine.Options{Listener: bld.Listener(), Gate: magic.NewHashGate(tr, eng, uint64(i))})
		if err != nil {
			b.Fatal(err)
		}
		sinkGraph = bld.Graph()
		attempted += st.Instantiations + st.Suppressed
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(attempted), "ns/inst")
}

// BenchmarkGrounding times one grounding of an AMIE-8 target (compile,
// unsampled fixpoint, recording listener, index build), per instantiation.
func BenchmarkGrounding(b *testing.B) {
	prog, d, targets, trs := amie8Targets(b)
	var fired int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(trs)
		eng := boundShape(b, prog, d, compileShape(b, d, trs[k]), trs[k], targets[k:k+1])
		g, st, err := magic.Ground(trs[k], eng, magic.GroundOptions{})
		if err != nil {
			b.Fatal(err)
		}
		sinkGround = g
		fired += st.Engine.Instantiations
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/inst")
}

// BenchmarkPropagate times one propagation plus graph-size count over an
// AMIE-8 target's grounding, per ground instantiation.
func BenchmarkPropagate(b *testing.B) {
	prog, d, targets, trs := amie8Targets(b)
	var gs []*magic.Grounding
	for k, tr := range trs {
		gs = append(gs, groundTarget(b, prog, d, tr, targets[k]).g)
	}
	var p magic.Propagator
	var insts int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := gs[i%len(gs)]
		p.Propagate(g, uint64(i), g.Seed(0))
		sinkNodes, _ = p.GraphSize()
		insts += int64(g.Instantiations())
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
}

// amie8Groups builds a magics-amie-shaped instance (AMIE-8, 30 derived
// targets), groups the targets by predicate, and returns the groups, each
// predicate's multi-seed transform and, per target, the instantiation
// count of its own single-target grounding.
func amie8Groups(b *testing.B) (*ast.Program, *db.Database, [][]ast.Atom, []*magic.Transformed, [][]int) {
	b.Helper()
	w, err := workload.ByName("AMIE", 8, rand.New(rand.NewPCG(8, 1)))
	if err != nil {
		b.Fatal(err)
	}
	groups := byPredicate(derivedTargets(b, w.Program, w.DB, 30, rand.New(rand.NewPCG(8, 2))))
	var trs []*magic.Transformed
	var own [][]int
	for _, group := range groups {
		tr, err := magic.Transform(w.Program, group)
		if err != nil {
			b.Fatal(err)
		}
		trs = append(trs, tr)
		var sizes []int
		for _, target := range group {
			single, err := magic.Transform(w.Program, []ast.Atom{target})
			if err != nil {
				b.Fatal(err)
			}
			sizes = append(sizes, groundTarget(b, w.Program, w.DB, single, target).g.Instantiations())
		}
		own = append(own, sizes)
	}
	return w.Program, w.DB, groups, trs, own
}

// BenchmarkGroundingPerPredicate times one grounding of a target
// predicate's multi-seed program on AMIE-8 (compile, unsampled fixpoint,
// recording listener, index build), per instantiation.
func BenchmarkGroundingPerPredicate(b *testing.B) {
	prog, d, groups, trs, _ := amie8Groups(b)
	var fired int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(trs)
		eng := boundShape(b, prog, d, compileShape(b, d, trs[k]), trs[k], groups[k])
		g, st, err := magic.Ground(trs[k], eng, magic.GroundOptions{})
		if err != nil {
			b.Fatal(err)
		}
		sinkGround = g
		fired += st.Engine.Instantiations
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/inst")
}

// BenchmarkPropagatePerPredicate times one propagation plus graph-size
// count from one target's seed over its predicate's grounding on AMIE-8,
// per instantiation of the target's own unsampled run (the unit of
// BenchmarkPropagate, so the two compare directly).
func BenchmarkPropagatePerPredicate(b *testing.B) {
	prog, d, groups, trs, own := amie8Groups(b)
	type draw struct {
		g    *magic.Grounding
		from int32
		size int
	}
	var draws []draw
	for k, tr := range trs {
		gr := groundProgram(b, prog, d, tr, groups[k])
		for q, size := range own[k] {
			draws = append(draws, draw{gr.g, gr.g.Seed(q), size})
		}
	}
	var p magic.Propagator
	var insts int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dr := draws[i%len(draws)]
		p.Propagate(dr.g, uint64(i), dr.from)
		sinkNodes, _ = p.GraphSize()
		insts += int64(dr.size)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
}
