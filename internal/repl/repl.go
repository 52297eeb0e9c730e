// Package repl implements the interactive datalog shell behind cmd/cmrepl:
// accumulate rules and facts, query with patterns, explain derivations,
// estimate probabilities, and run contribution maximization, all from a
// prompt. The REPL reads from an io.Reader and writes to an io.Writer, so
// it is fully testable.
package repl

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"

	"contribmax/internal/ast"
	"contribmax/internal/cm"
	"contribmax/internal/db"
	"contribmax/internal/engine"
	"contribmax/internal/im"
	"contribmax/internal/magic"
	"contribmax/internal/parser"
	"contribmax/internal/provenance"
)

// REPL is one interactive session.
type REPL struct {
	prog *ast.Program
	base *db.Database
	rng  *rand.Rand
	auto int          // auto-label counter
	fix  *db.Database // cached fixpoint (nil = stale)
}

// New returns an empty session.
func New() *REPL {
	return &REPL{
		prog: ast.NewProgram(),
		base: db.NewDatabase(),
		rng:  rand.New(rand.NewPCG(0x5EE1, 7)),
	}
}

// Run processes lines from in until EOF or :quit, writing responses to out.
// It always returns nil on a clean EOF; input errors are reported inline
// and the loop continues.
func (r *REPL) Run(in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	fmt.Fprint(out, "contribmax repl — :help for commands\n")
	for {
		fmt.Fprint(out, "> ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == ":quit" || line == ":q" {
			return nil
		}
		if err := r.Exec(line, out); err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
		}
	}
}

// Exec runs one REPL line.
func (r *REPL) Exec(line string, out io.Writer) error {
	switch {
	case line == ":help":
		return r.help(out)
	case strings.HasPrefix(line, ":load "):
		return r.load(strings.TrimSpace(strings.TrimPrefix(line, ":load ")), out)
	case line == ":program":
		fmt.Fprint(out, r.prog.String())
		return nil
	case line == ":stats":
		return r.stats(out)
	case strings.HasPrefix(line, ":explain "):
		return r.explain(strings.TrimSpace(strings.TrimPrefix(line, ":explain ")), out)
	case strings.HasPrefix(line, ":prob "):
		return r.probability(strings.TrimSpace(strings.TrimPrefix(line, ":prob ")), out)
	case strings.HasPrefix(line, ":solve "):
		return r.solve(strings.TrimSpace(strings.TrimPrefix(line, ":solve ")), out)
	case strings.HasPrefix(line, "?-"):
		return r.query(strings.TrimSpace(strings.TrimPrefix(line, "?-")), out)
	case strings.HasPrefix(line, ":"):
		return fmt.Errorf("unknown command %q (:help)", line)
	default:
		return r.addStatement(line, out)
	}
}

func (r *REPL) help(out io.Writer) error {
	fmt.Fprint(out, `statements
  0.8 r1: p(X) :- q(X).     add a rule (probability and label optional)
  q(a).                     add a fact (ground head, no body)
queries
  ?- p(X).                  evaluate the program and list matching facts
commands
  :load program <path>      load rules from a file
  :load facts <path>        load facts from a file (.facts or .cmdb)
  :program                  print the current program
  :stats                    database and fixpoint statistics
  :explain <atom>           most probable derivation of a derived tuple
  :prob <atom>              derivation probability (5k sampled executions)
  :solve k=<n> <target>...  top-n contributing facts for the targets
  :quit                     leave
`)
	return nil
}

func (r *REPL) load(arg string, out io.Writer) error {
	kind, path, ok := strings.Cut(arg, " ")
	if !ok {
		return fmt.Errorf("usage: :load program|facts <path>")
	}
	path = strings.TrimSpace(path)
	switch kind {
	case "program":
		prog, err := parser.ParseProgramFile(path)
		if err != nil {
			return err
		}
		for _, rule := range prog.Rules {
			if err := r.addRule(rule); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "loaded %d rules\n", len(prog.Rules))
	case "facts":
		facts, err := readFacts(path)
		if err != nil {
			return err
		}
		added, err := r.base.InsertAll(facts)
		r.fix = nil
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "loaded %d facts\n", added)
	default:
		return fmt.Errorf("usage: :load program|facts <path>")
	}
	return nil
}

// readFacts reads the facts of a fact file, or of a .cmdb snapshot.
func readFacts(path string) ([]ast.Atom, error) {
	if !strings.HasSuffix(path, ".cmdb") {
		return parser.ParseFactsFile(path)
	}
	loaded, err := db.LoadSnapshot(path)
	if err != nil {
		return nil, err
	}
	var facts []ast.Atom
	for _, name := range loaded.RelationNames() {
		facts = append(facts, loaded.Facts(name)...)
	}
	return facts, nil
}

// addStatement parses a rule or fact statement.
func (r *REPL) addStatement(line string, out io.Writer) error {
	if !strings.HasSuffix(line, ".") {
		return fmt.Errorf("statements end with '.' (queries start with '?-')")
	}
	prog, err := parser.ParseProgram(line)
	if err != nil {
		return err
	}
	for _, rule := range prog.Rules {
		if rule.IsFact() && rule.Prob >= 1 {
			// Plain ground facts go straight into the database.
			if _, _, _, err := r.base.InsertAtom(rule.Head); err == nil {
				r.fix = nil
				fmt.Fprintf(out, "fact %s\n", rule.Head)
				continue
			}
		}
		if err := r.addRule(rule); err != nil {
			return err
		}
		fmt.Fprintf(out, "rule %s\n", rule.String())
	}
	return nil
}

func (r *REPL) addRule(rule ast.Rule) error {
	// Relabel on collision so files and interactive rules can mix.
	if _, taken := r.prog.RuleByLabel(rule.Label); taken {
		for {
			r.auto++
			rule.Label = "i" + strconv.Itoa(r.auto)
			if _, taken := r.prog.RuleByLabel(rule.Label); !taken {
				break
			}
		}
	}
	next := r.prog.Clone()
	next.Add(rule)
	if err := next.Validate(); err != nil {
		return err
	}
	r.prog = next
	r.fix = nil
	return nil
}

// fixpoint evaluates (and caches) the program over the base facts. The
// evaluation shares the base relations the program only reads and copies
// the base facts of the predicates it derives, so it never writes into the
// base database.
func (r *REPL) fixpoint() (*db.Database, error) {
	if r.fix != nil {
		return r.fix, nil
	}
	scratch := r.base.CloneSchema()
	for _, name := range r.base.RelationNames() {
		rel, _ := r.base.Lookup(name)
		if !r.prog.IsIDB(name) {
			scratch.Attach(rel)
			continue
		}
		derived := scratch.Relation(name, rel.Arity())
		for i := 0; i < rel.Len(); i++ {
			derived.Insert(rel.Tuple(db.TupleID(i)))
		}
	}
	eng, err := engine.New(r.prog, scratch)
	if err != nil {
		return nil, err
	}
	if _, err := eng.Run(engine.Options{}); err != nil {
		return nil, err
	}
	r.fix = scratch
	return scratch, nil
}

func (r *REPL) query(q string, out io.Writer) error {
	pattern, err := parser.ParseAtom(q)
	if err != nil {
		return err
	}
	fix, err := r.fixpoint()
	if err != nil {
		return err
	}
	matches, err := fix.Match(pattern)
	if err != nil {
		return err
	}
	lines := make([]string, len(matches))
	for i, m := range matches {
		lines[i] = m.String()
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(out, l)
	}
	fmt.Fprintf(out, "%d results\n", len(lines))
	return nil
}

func (r *REPL) stats(out io.Writer) error {
	fmt.Fprintf(out, "rules: %d\nbase facts: %d\n", len(r.prog.Rules), r.base.TotalTuples())
	fix, err := r.fixpoint()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fixpoint tuples: %d\n%s", fix.TotalTuples(), fix.Stats())
	return nil
}

func (r *REPL) explain(arg string, out io.Writer) error {
	target, err := parser.ParseAtom(arg)
	if err != nil {
		return err
	}
	g, root, found, err := magic.RelevantGraph(context.Background(), r.prog, r.base, target)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%s is not derivable", target)
	}
	tree, ok := provenance.BestDerivation(g, root)
	if !ok {
		return fmt.Errorf("%s has no derivation grounded in the facts", target)
	}
	fmt.Fprintf(out, "p = %.4g\n%s", tree.Prob, tree.Render(r.base.Symbols()))
	return nil
}

func (r *REPL) probability(arg string, out io.Writer) error {
	target, err := parser.ParseAtom(arg)
	if err != nil {
		return err
	}
	p, err := cm.DerivationProbability(r.prog, r.base, target, 5000, r.rng)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "P[%s] ~= %.3f\n", target, p)
	return nil
}

// solve parses "k=<n> <target> <target>..." and runs Magic^S CM.
func (r *REPL) solve(arg string, out io.Writer) error {
	fields := strings.Fields(arg)
	k := 3
	var targets []ast.Atom
	for _, f := range fields {
		if strings.HasPrefix(f, "k=") {
			n, err := strconv.Atoi(strings.TrimPrefix(f, "k="))
			if err != nil {
				return fmt.Errorf("bad k: %v", err)
			}
			k = n
			continue
		}
		a, err := parser.ParseAtom(f)
		if err != nil {
			return fmt.Errorf("target %q: %v", f, err)
		}
		targets = append(targets, a)
	}
	ground, _, err := cm.ExpandTargets(context.Background(), r.prog, r.base, targets)
	if err != nil {
		return err
	}
	if len(ground) == 0 {
		return fmt.Errorf("no targets")
	}
	res, err := cm.MagicSampledCM(cm.Input{
		Program: r.prog, DB: r.base, T2: ground, K: k,
	}, cm.Options{Theta: im.ThetaSpec{Explicit: 1000}, Rand: r.rng})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "contribution %.3f to %d targets\n", res.EstContribution, len(ground))
	for i, s := range res.Seeds {
		fmt.Fprintf(out, "  %d. %s\n", i+1, s)
	}
	return nil
}
