package difftest

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/magic"
)

// CompareWrittenOrder is the planner's differential check over one spec:
// the planned fixpoint's relation contents must equal (as sets) those of a
// DisableJoinReorder run, which joins in written order and evaluates checks
// only on complete instantiations. Written order enumerates instantiations
// in a different sequence, so tuple ids legitimately differ and only the
// set-level comparison is meaningful. (A mid-run derivation budget would
// abort at an order-dependent point, so the runs are unbudgeted; a
// MaxRounds bound in base is fine — round boundaries are
// order-independent.) base supplies gate/round budget etc.; its Listener
// and DisableJoinReorder are managed here.
func CompareWrittenOrder(s *Spec, base engine.Options) error {
	base.DisableJoinReorder = false
	d, err := s.NewDB()
	if err != nil {
		return err
	}
	planned := fixpointSet(s.Prog, d, base)
	if d, err = s.NewDB(); err != nil {
		return err
	}
	written := base
	written.DisableJoinReorder = true
	writtenSet := fixpointSet(s.Prog, d, written)
	if planned != writtenSet {
		return fmt.Errorf("difftest: planned fixpoint differs from written-order fixpoint:\n%s", firstDiff(writtenSet, planned))
	}
	return nil
}

// fixpointSet evaluates prog over d and renders every relation's contents
// as a sorted tuple set — the order-insensitive view two runs with
// different enumeration orders can still be compared under.
func fixpointSet(prog *ast.Program, d *db.Database, opts engine.Options) string {
	opts.Listener = nil
	eng, err := engine.New(prog, d)
	if err != nil {
		return "new error: " + err.Error()
	}
	_, runErr := eng.Run(opts)
	var sb strings.Builder
	for _, name := range d.RelationNames() {
		rel, ok := d.Lookup(name)
		if !ok {
			continue
		}
		tuples := make([]string, rel.Len())
		for id := 0; id < rel.Len(); id++ {
			tuples[id] = fmt.Sprintf("%v", rel.Tuple(db.TupleID(id)))
		}
		sort.Strings(tuples)
		fmt.Fprintf(&sb, "r %s %s\n", name, strings.Join(tuples, " "))
	}
	if runErr != nil {
		fmt.Fprintf(&sb, "run error: %v\n", runErr)
	}
	return sb.String()
}

// GenerateMagic builds a random Magic-Sets-transformed spec: it generates a
// stratified program with Generate, evaluates it to find a derived idb
// tuple, and returns the transform of the program for that goal (same
// extensional facts). The transformed program is exactly the rule shape the
// Magic CM variants feed the engine — adorned predicates, magic guards,
// seed rules — and the shape whose plans the cache is keyed to reuse.
// Programs with negation are regenerated (the transform requires positive
// programs), so the same rng state still yields a deterministic spec.
func GenerateMagic(rng *rand.Rand) (*Spec, error) {
	for attempt := 0; attempt < 32; attempt++ {
		base := Generate(rng)
		if base.Prog.HasNegation() {
			continue
		}
		goal, err := derivedGoal(base)
		if err != nil {
			return nil, err
		}
		if goal == nil {
			continue
		}
		tr, err := magic.Transform(base.Prog, []ast.Atom{*goal})
		if err != nil {
			return nil, fmt.Errorf("difftest: magic transform: %w", err)
		}
		return &Spec{Prog: tr.Program, Facts: base.Facts}, nil
	}
	return nil, fmt.Errorf("difftest: no magic-transformable spec in 32 attempts")
}

// derivedGoal evaluates the spec and returns the first derived idb tuple
// (by relation name, then tuple id) as a ground atom, or nil when the
// fixpoint derives nothing intensional.
func derivedGoal(s *Spec) (*ast.Atom, error) {
	d, err := s.NewDB()
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(s.Prog, d)
	if err != nil {
		return nil, err
	}
	if _, err := eng.Run(engine.Options{MaxRounds: 64}); err != nil && !strings.Contains(err.Error(), "MaxRounds") {
		return nil, err
	}
	syms := d.Symbols()
	for _, name := range d.RelationNames() {
		if !s.Prog.IsIDB(name) {
			continue
		}
		rel, ok := d.Lookup(name)
		if !ok || rel.Len() == 0 {
			continue
		}
		t := rel.Tuple(0)
		terms := make([]ast.Term, len(t))
		for i, sym := range t {
			terms[i] = ast.C(syms.Name(sym))
		}
		a := ast.NewAtom(name, terms...)
		return &a, nil
	}
	return nil, nil
}
