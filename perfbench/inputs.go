package main

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/parser"
	"contribmax/internal/workload"
)

// instance is one generated problem as a user would submit it (program and
// facts text) together with the benchmark's parsed copy, the chosen targets
// and the candidate set T1 used to verify answers.
type instance struct {
	progText  string
	factsText string
	prog      *ast.Program
	db        *db.Database
	targets   []ast.Atom
	// pattern is a non-ground target that matches at least one target
	// (see selectivePattern).
	pattern string
	// t1 holds every edb fact of the instance, rendered as the solvers
	// render seeds.
	t1      map[string]bool
	derived int
}

// spec names a workload generator and its size parameter (see
// workload.ByName).
type spec struct {
	family string
	size   int
}

func (s spec) String() string { return fmt.Sprintf("%s-%d", s.family, s.size) }

// genInstance generates one instance from rng: the workload generator's
// database rendered to text, parsed and loaded back the way a submission is,
// then evaluated once to draw nTargets derived facts as T2. Parsing and
// loading are recorded as spans on tr under parent.
func genInstance(s spec, rng *rand.Rand, nTargets int, tr *tracer, parent int) (*instance, error) {
	w, err := workload.ByName(s.family, s.size, rng)
	if err != nil {
		return nil, err
	}
	var facts []ast.Atom
	for _, name := range w.DB.RelationNames() {
		facts = append(facts, w.DB.Facts(name)...)
	}
	var fb strings.Builder
	if err := parser.WriteFacts(&fb, facts); err != nil {
		return nil, err
	}
	in := &instance{progText: w.Program.String(), factsText: fb.String()}

	r := tr.begin(0, parent, "parser.parse")
	in.prog, err = parser.ParseProgram(in.progText)
	var parsed []ast.Atom
	if err == nil {
		parsed, err = parser.ParseFacts(in.factsText)
	}
	r.end()
	if err != nil {
		return nil, fmt.Errorf("%s: parse generated input: %w", s, err)
	}
	r = tr.begin(0, parent, "db.load")
	in.db, err = loadFacts(parsed)
	r.end()
	if err != nil {
		return nil, fmt.Errorf("%s: load generated facts: %w", s, err)
	}

	in.t1 = map[string]bool{}
	for _, a := range parsed {
		in.t1[a.String()] = true
	}
	outs, err := derivedFacts(in.prog, in.db)
	if err != nil {
		return nil, fmt.Errorf("%s: evaluate: %w", s, err)
	}
	in.derived = len(outs)
	if len(outs) == 0 {
		return nil, fmt.Errorf("%s: instance derives nothing", s)
	}
	perm := rng.Perm(len(outs))
	for i := 0; i < nTargets && i < len(outs); i++ {
		in.targets = append(in.targets, outs[perm[i]])
	}
	in.pattern = selectivePattern(in.targets, outs)
	return in, nil
}

// maxPatternMatches bounds how many derived facts a pattern target may
// expand to, so pattern requests stay comparable in size across instances.
const maxPatternMatches = 10

// selectivePattern turns a target into a pattern by making its last
// argument a variable. It takes the first target whose pattern matches at
// most maxPatternMatches derived facts, else the most selective one.
func selectivePattern(targets, derived []ast.Atom) string {
	count := map[string]int{}
	patternOf := func(a ast.Atom) string {
		terms := append([]ast.Term(nil), a.Terms...)
		terms[len(terms)-1] = ast.V("Y")
		return ast.NewAtom(a.Predicate, terms...).String()
	}
	for _, a := range derived {
		count[patternOf(a)]++
	}
	best := patternOf(targets[0])
	for _, t := range targets {
		p := patternOf(t)
		if count[p] <= maxPatternMatches {
			return p
		}
		if count[p] < count[best] {
			best = p
		}
	}
	return best
}

// loadFacts inserts parsed facts into a fresh database.
func loadFacts(facts []ast.Atom) (*db.Database, error) {
	d := db.NewDatabase()
	for _, f := range facts {
		if _, _, _, err := d.InsertAtom(f); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// derivedFacts evaluates prog over a scratch copy of d and returns every
// derived fact.
func derivedFacts(prog *ast.Program, d *db.Database) ([]ast.Atom, error) {
	scratch := scratchOf(prog, d)
	eng, err := engine.New(prog, scratch)
	if err != nil {
		return nil, err
	}
	if _, err := eng.Run(engine.Options{}); err != nil {
		return nil, err
	}
	var out []ast.Atom
	for _, pred := range prog.IDBs() {
		rel, ok := scratch.Lookup(pred)
		if !ok {
			continue
		}
		for i := 0; i < rel.Len(); i++ {
			out = append(out, scratch.AtomOf(rel, db.TupleID(i)))
		}
	}
	return out, nil
}

// scratchOf returns an empty database that shares d's symbols and the
// program's edb relations, the way the solvers evaluate.
func scratchOf(prog *ast.Program, d *db.Database) *db.Database {
	scratch := d.CloneSchema()
	for _, pred := range prog.EDBs() {
		if rel, ok := d.Lookup(pred); ok {
			scratch.Attach(rel)
		}
	}
	return scratch
}

// checkSeeds verifies one answer: at most k seeds, distinct, each a member
// of T1, one gain per seed, and gains non-increasing (the greedy order).
func checkSeeds(seeds []string, gains []int, k int, t1 map[string]bool) error {
	if len(seeds) == 0 {
		return fmt.Errorf("no seeds")
	}
	if len(seeds) > k {
		return fmt.Errorf("%d seeds for k=%d", len(seeds), k)
	}
	if len(gains) != len(seeds) {
		return fmt.Errorf("%d gains for %d seeds", len(gains), len(seeds))
	}
	seen := map[string]bool{}
	for i, s := range seeds {
		if !t1[s] {
			return fmt.Errorf("seed %s is not a candidate fact", s)
		}
		if seen[s] {
			return fmt.Errorf("seed %s selected twice", s)
		}
		seen[s] = true
		if i > 0 && gains[i] > gains[i-1] {
			return fmt.Errorf("gain %d of seed %d exceeds the previous gain %d", gains[i], i, gains[i-1])
		}
	}
	return nil
}
