// Package difftest is the engine's differential test harness: it evaluates
// one program twice — sequentially and under parallel evaluation — and
// asserts the observable outputs are byte-identical, which is the
// determinism contract engine.Options.Parallelism promises (relations with
// tuple ids, Stats, and the derivation stream; see docs/PERFORMANCE.md).
//
// The package is used three ways: property-based tests over randomly
// generated stratified programs (Generate), corpus tests over the
// repository's example programs (LoadCorpus), and the FuzzEvalProgram fuzz
// target in the engine package.
package difftest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"contribmax/internal/ast"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/parser"
)

// Spec is one differential test case: a program plus the extensional facts
// to evaluate it over. Fresh databases are built per run, so evaluations
// never share derived state.
type Spec struct {
	Prog  *ast.Program
	Facts []ast.Atom
}

// NewDB builds a fresh database holding the spec's facts.
func (s *Spec) NewDB() (*db.Database, error) {
	d := db.NewDatabase()
	for _, f := range s.Facts {
		if _, _, _, err := d.InsertAtom(f); err != nil {
			return nil, fmt.Errorf("difftest: insert %s: %w", f, err)
		}
	}
	return d, nil
}

// Snapshot evaluates prog over d and renders everything the determinism
// contract covers into one comparable string: the exact derivation stream
// (rule index, head relation/id/novelty, body fact refs, in listener
// order), every touched relation's full tuple sequence in id order, and
// the Stats with the wall-clock field zeroed. opts.Listener is replaced by
// the recording listener. A run error is folded into the snapshot (after
// the output produced so far), so two runs that fail identically still
// compare equal — and a divergence in *when* they fail is caught.
//
// maxDerivations > 0 bounds the run: once the stream reaches the budget
// the run is canceled at the next round boundary. Both the sequential and
// the parallel engine check cancellation at the same boundaries and
// deliver identical streams, so a budgeted run still snapshots
// identically at every Parallelism level.
func Snapshot(prog *ast.Program, d *db.Database, opts engine.Options, maxDerivations int) string {
	var sb strings.Builder
	var ctx context.Context
	var cancel context.CancelFunc
	if maxDerivations > 0 {
		ctx, cancel = context.WithCancel(context.Background())
		defer cancel()
		opts.Context = ctx
	}
	derivations := 0
	opts.Listener = func(dv engine.Derivation) {
		fmt.Fprintf(&sb, "d %d %s/%d new=%t [", dv.RuleIndex, dv.Head.Rel.Name(), dv.Head.ID, dv.HeadNew)
		for _, b := range dv.Body {
			fmt.Fprintf(&sb, " %s/%d", b.Rel.Name(), b.ID)
		}
		sb.WriteString(" ]\n")
		derivations++
		if maxDerivations > 0 && derivations == maxDerivations {
			cancel()
		}
	}
	eng, err := engine.New(prog, d)
	if err != nil {
		return "new error: " + err.Error()
	}
	stats, runErr := eng.Run(opts)
	for _, name := range d.RelationNames() {
		rel, ok := d.Lookup(name)
		if !ok {
			continue
		}
		fmt.Fprintf(&sb, "r %s", name)
		for id := 0; id < rel.Len(); id++ {
			fmt.Fprintf(&sb, " %v", rel.Tuple(db.TupleID(id)))
		}
		sb.WriteString("\n")
	}
	stats.Elapsed = 0
	fmt.Fprintf(&sb, "stats %+v\n", stats)
	if runErr != nil {
		fmt.Fprintf(&sb, "run error: %v\n", runErr)
	}
	return sb.String()
}

// CompareParallel evaluates the spec sequentially and at each given
// Parallelism level and returns a descriptive error on the first
// divergence (nil when all levels agree). base supplies the non-parallel
// options (gate, round budget, ...); its Listener and Context are managed
// by Snapshot. maxDerivations is forwarded to Snapshot.
func CompareParallel(s *Spec, base engine.Options, maxDerivations int, levels []int) error {
	d, err := s.NewDB()
	if err != nil {
		return err
	}
	base.Parallelism = 0
	want := Snapshot(s.Prog, d, base, maxDerivations)
	for _, par := range levels {
		d, err := s.NewDB()
		if err != nil {
			return err
		}
		opts := base
		opts.Parallelism = par
		got := Snapshot(s.Prog, d, opts, maxDerivations)
		if got != want {
			return fmt.Errorf("difftest: Parallelism=%d diverges from sequential:\n%s", par, firstDiff(want, got))
		}
	}
	return nil
}

// firstDiff renders the first differing line of two snapshots.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  sequential: %q\n  parallel:   %q", i+1, wl, gl)
		}
	}
	return "snapshots differ only in length"
}

// CorpusEntry is one example program resolved from disk.
type CorpusEntry struct {
	Path string
	Spec *Spec
}

// LoadCorpus walks the given roots for .dl programs, resolving each
// program's fact files from its "%! facts:" directives (paths relative to
// the program file). Programs that fail to parse are skipped — corpus
// directories may hold intentionally broken analyzer fixtures — but a
// fact-file directive that names an unreadable file is an error, since
// silently dropping facts would hollow out the differential assertion.
func LoadCorpus(roots ...string) ([]CorpusEntry, error) {
	var out []CorpusEntry
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || filepath.Ext(path) != ".dl" {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			prog, err := parser.ParseProgram(string(src))
			if err != nil {
				return nil // analyzer fixtures etc.
			}
			spec := &Spec{Prog: prog}
			for _, rel := range factsDirectives(string(src)) {
				fp := rel
				if !filepath.IsAbs(fp) {
					fp = filepath.Join(filepath.Dir(path), fp)
				}
				factSrc, err := os.ReadFile(fp)
				if err != nil {
					return fmt.Errorf("difftest: %s: %w", path, err)
				}
				// ParseProbFacts accepts both plain and
				// probability-annotated fact files; the engine grounds the
				// program identically either way, so weights are dropped.
				facts, err := parser.ParseProbFacts(string(factSrc))
				if err != nil {
					return fmt.Errorf("difftest: %s: %w", path, err)
				}
				for _, f := range facts {
					spec.Facts = append(spec.Facts, f.Atom)
				}
			}
			out = append(out, CorpusEntry{Path: path, Spec: spec})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// factsDirectives extracts the values of "%! facts:" comment directives.
func factsDirectives(src string) []string {
	var out []string
	for _, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, "%!") {
			continue
		}
		key, value, ok := strings.Cut(strings.TrimSpace(trimmed[2:]), ":")
		if ok && strings.TrimSpace(key) == "facts" {
			out = append(out, strings.Fields(value)...)
		}
	}
	return out
}
