package cm

import (
	"context"
	"fmt"
	"strings"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
)

// algorithms names each solver for the front ends (cmrun's -algo, the
// server's algorithm field), in the order they list them.
var algorithms = []struct {
	name  string
	solve func(Input, Options) (*Result, error)
}{
	{"naive", NaiveCM},
	{"magic", MagicCM},
	{"magics", MagicSampledCM},
	{"magicg", MagicGroupedCM},
	{"exact", ExactCM},
	{"dnf", DNFCM},
}

// AlgorithmNames lists the names Solve accepts.
func AlgorithmNames() []string {
	names := make([]string, len(algorithms))
	for i, a := range algorithms {
		names[i] = a.name
	}
	return names
}

// Solve runs the algorithm with the given name (see AlgorithmNames) on the
// instance. An unknown name is an error that lists the valid ones.
func Solve(name string, in Input, opts Options) (*Result, error) {
	for _, a := range algorithms {
		if a.name == name {
			return a.solve(in, opts)
		}
	}
	return nil, fmt.Errorf("unknown algorithm %q (want one of %s)", name, strings.Join(AlgorithmNames(), ", "))
}

// ExpandTargets resolves a request's target atoms to a solve's T2: the
// ground atoms in input order, then the matches of each pattern (an atom
// with variables) among the facts the program derives, pattern by
// pattern. The program is evaluated, only when some target is a pattern,
// on a scratch database sharing database's edb relations, so database
// gains no derived facts. unmatched lists the patterns that matched
// nothing.
func ExpandTargets(ctx context.Context, prog *ast.Program, database *db.Database, targets []ast.Atom) (ground, unmatched []ast.Atom, err error) {
	var patterns []ast.Atom
	for _, a := range targets {
		if a.IsGround() {
			ground = append(ground, a)
		} else {
			patterns = append(patterns, a)
		}
	}
	if len(patterns) == 0 {
		return ground, nil, nil
	}
	scratch := database.Scratch(prog.EDBs())
	eng, err := engine.New(prog, scratch)
	if err != nil {
		return nil, nil, err
	}
	if _, err := eng.Run(engine.Options{Context: ctx}); err != nil {
		return nil, nil, err
	}
	for _, p := range patterns {
		matches, err := scratch.Match(p)
		if err != nil {
			return nil, nil, fmt.Errorf("pattern %s: %w", p, err)
		}
		if len(matches) == 0 {
			unmatched = append(unmatched, p)
		}
		ground = append(ground, matches...)
	}
	return ground, unmatched, nil
}
