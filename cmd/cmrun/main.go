// Command cmrun solves a Contribution Maximization instance from files:
// given a probabilistic datalog program, a fact file, a set of target
// output tuples and a budget k, it prints the k input facts contributing
// the most to the targets.
//
// Usage:
//
//	cmrun -program trade.dl -facts trade.facts \
//	      -target 'dealsWith(usa, iran)' -target 'dealsWith(russia, ukraine)' \
//	      -k 2 [-algo magics] [-rr 300] [-seed 42] [-verbose]
//
// Algorithms: naive | magic | magics (default) | magicg | exact | dnf.
// exact answers by lifted inference — no sampling error — when every
// target's dependency cone is hierarchical, and falls back to magic
// sampling otherwise; dnf estimates by Monte-Carlo possible-world
// sampling over derivation lineages.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"strings"

	"contribmax"
)

type targetList []string

func (t *targetList) String() string { return strings.Join(*t, "; ") }

func (t *targetList) Set(v string) error {
	*t = append(*t, v)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "cmrun:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cmrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		programPath = fs.String("program", "", "path to the datalog program file (required)")
		factsPath   = fs.String("facts", "", "path to the fact file or .cmdb snapshot (required)")
		k           = fs.Int("k", 10, "seed-set size")
		algo        = fs.String("algo", "magics", "algorithm: naive | magic | magics | magicg | exact | dnf")
		rr          = fs.Int("rr", 0, "number of RR sets (0 = 30% of #targets, floored at 1000)")
		seed        = fs.Uint64("seed", 1, "random seed")
		parallel    = fs.Int("parallel", 1, "worker goroutines: RR generation (every sampling algorithm; 0 means 1) and, when >= 2, the fixpoint engine for full-graph builds (naive/magicg); results are identical at every level")
		adaptive    = fs.Bool("adaptive", false, "derive the RR-set count adaptively (IMM) instead of -rr")
		verbose     = fs.Bool("verbose", false, "print run statistics")
		stats       = fs.Bool("stats", false, "print the per-phase timing tree and collected metrics on stderr")
		jsonOut     = fs.Bool("json", false, "emit the result as JSON on stdout")
		diverse     = fs.Int("diverse", 0, "max seeds per relation (1 = every seed from a different table; 0 = unconstrained)")
		journalOut  = fs.String("journal", "", "write the solve's structured event journal to this file as JSONL (render with cmjournal)")
		estimate    = fs.Bool("estimate", false, "re-estimate the seeds' contribution with 10k Monte-Carlo samples (builds the full WD graph)")
		nolint      = fs.Bool("nolint", false, "skip the static-analysis gate (errors still fail inside the algorithms; warnings are not printed)")
		warnFlag    = fs.String("W", "", `"error" makes static-analysis warnings fatal, matching cmlint -W error`)
		prune       = fs.Bool("prune", false, "drop rules provably outside the targets' dependency cone before solving (results are byte-identical)")
		explain     = fs.Bool("explain", false, "profile the solve and print an EXPLAIN ANALYZE-style tree on stderr: rules ranked by self-time, per-stratum convergence, RR-phase attribution (results are byte-identical)")
		profileOut  = fs.String("profile-json", "", "profile the solve and write the full runtime profile artifact (schema contribmax/profile/v1) to this file as JSON")
	)
	var targets targetList
	fs.Var(&targets, "target", "target output tuple or pattern, e.g. 'dealsWith(usa, iran)' or 'dealsWith(usa, Y)' (repeatable, required; patterns match against the program's derived facts)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *programPath == "" || *factsPath == "" || len(targets) == 0 {
		fs.Usage()
		return fmt.Errorf("need -program, -facts, and at least one -target")
	}
	if *warnFlag != "" && *warnFlag != "error" {
		return fmt.Errorf("-W accepts only \"error\", got %q", *warnFlag)
	}
	// Parse loose so the static-analysis gate below reports every finding
	// with source positions, not just the first validation error.
	src, err := os.ReadFile(*programPath)
	if err != nil {
		return err
	}
	prog, err := contribmax.ParseProgramLoose(string(src))
	if err != nil {
		return fmt.Errorf("%s: %w", *programPath, err)
	}
	db, err := contribmax.LoadDatabaseFile(*factsPath)
	if err != nil {
		return err
	}
	var T2 []contribmax.Atom
	var patterns []contribmax.Atom
	for _, t := range targets {
		a, err := contribmax.ParseAtom(t)
		if err != nil {
			return fmt.Errorf("target %q: %w", t, err)
		}
		if a.IsGround() {
			T2 = append(T2, a)
		} else {
			patterns = append(patterns, a)
		}
	}
	if !*nolint {
		// Fail fast with positioned diagnostics (and surface warnings)
		// before any evaluation or graph construction. Roots are all target
		// predicates, ground and pattern alike.
		diags := contribmax.AnalyzeWithDB(prog, db, append(append([]contribmax.Atom{}, T2...), patterns...))
		failSeverity := contribmax.SeverityError
		if *warnFlag == "error" {
			failSeverity = contribmax.SeverityWarning
		}
		fatal := false
		for _, d := range diags {
			if d.Severity >= contribmax.SeverityWarning {
				fmt.Fprintf(stderr, "%s:%s\n", *programPath, d)
			}
			if d.Severity >= failSeverity {
				fatal = true
			}
		}
		if fatal {
			return fmt.Errorf("program rejected by static analysis (run cmlint %s for details, or -nolint to bypass)", *programPath)
		}
	} else if err := prog.Validate(); err != nil {
		// -nolint keeps the engine's own validation as the only gate.
		return fmt.Errorf("%s: %w", *programPath, err)
	}
	if len(patterns) > 0 {
		// Evaluate on a scratch database sharing the edb relations, then
		// expand each pattern against the derived facts.
		sdb := contribmax.Database{Database: db.Scratch(prog.EDBs())}
		if _, err := contribmax.Eval(prog, sdb); err != nil {
			return err
		}
		for _, p := range patterns {
			matches, err := sdb.Match(p)
			if err != nil {
				return fmt.Errorf("target pattern %s: %w", p, err)
			}
			if len(matches) == 0 {
				fmt.Fprintf(stderr, "warning: pattern %s matched no derived facts\n", p)
			}
			T2 = append(T2, matches...)
		}
	}
	if len(T2) == 0 {
		return fmt.Errorf("no target tuples (patterns matched nothing?)")
	}

	in := contribmax.Input{Program: prog, DB: db.Database, T2: T2, K: *k}
	opts := contribmax.Options{
		Theta:               contribmax.ThetaSpec{Explicit: *rr, Min: 1000},
		Adaptive:            *adaptive,
		MaxSeedsPerRelation: *diverse,
		Parallelism:         *parallel,
		Rand:                rand.New(rand.NewPCG(*seed, *seed^0x9E3779B9)),
		SkipAnalysis:        true,
		Prune:               *prune,
	}
	var trace *contribmax.TraceSpan
	if *stats {
		opts.Obs = contribmax.NewMetricsRegistry()
		trace = contribmax.StartTrace("cmrun")
		opts.Trace = trace
	}
	var journalFile *os.File
	if *journalOut != "" {
		journalFile, err = os.Create(*journalOut)
		if err != nil {
			return err
		}
		opts.Journal = contribmax.NewJournal("", contribmax.JournalOptions{Sink: journalFile})
	}
	if *explain || *profileOut != "" {
		opts.Profile = contribmax.NewRuntimeProfiler()
	}
	var res *contribmax.Result
	switch *algo {
	case "naive":
		res, err = contribmax.NaiveCM(in, opts)
	case "magic":
		res, err = contribmax.MagicCM(in, opts)
	case "magics":
		res, err = contribmax.MagicSampledCM(in, opts)
	case "magicg":
		res, err = contribmax.MagicGroupedCM(in, opts)
	case "exact":
		res, err = contribmax.ExactCM(in, opts)
	case "dnf":
		res, err = contribmax.DNFCM(in, opts)
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	if *stats {
		trace.End()
		fmt.Fprintln(stderr, "phases:")
		trace.Render(stderr)
		fmt.Fprintln(stderr, "metrics:")
		opts.Obs.WriteText(stderr)
	}
	if journalFile != nil {
		// Close even on solve error: a partial journal still shows where
		// the solve got to.
		jerr := opts.Journal.Close()
		if cerr := journalFile.Close(); jerr == nil {
			jerr = cerr
		}
		if jerr != nil {
			return fmt.Errorf("journal %s: %w", *journalOut, jerr)
		}
		fmt.Fprintf(stderr, "cmrun: journal run %s written to %s\n", opts.Journal.Run(), *journalOut)
	}
	if err != nil {
		return err
	}
	if opts.Profile != nil {
		rep := opts.Profile.Report()
		if *explain {
			fmt.Fprintln(stderr, "explain:")
			if err := rep.WriteText(stderr); err != nil {
				return err
			}
		}
		if *profileOut != "" {
			f, ferr := os.Create(*profileOut)
			if ferr != nil {
				return ferr
			}
			werr := rep.WriteJSON(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return fmt.Errorf("profile %s: %w", *profileOut, werr)
			}
			fmt.Fprintf(stderr, "cmrun: runtime profile written to %s\n", *profileOut)
		}
	}

	if *jsonOut {
		return emitJSON(stdout, res, T2)
	}
	fmt.Fprintf(stdout, "algorithm: %s\n", res.Algorithm)
	if res.Stats.ExactFallback != "" {
		fmt.Fprintf(stderr, "cmrun: exact tier unavailable (%s); answered by %s sampling\n",
			res.Stats.ExactFallback, res.Algorithm)
	}
	fmt.Fprintf(stdout, "estimated contribution to %d targets: %.4f\n", len(T2), res.EstContribution)
	fmt.Fprintln(stdout, "seeds (greedy order):")
	for i, s := range res.Seeds {
		fmt.Fprintf(stdout, "  %d. %s\n", i+1, s)
	}
	if *verbose {
		st := res.Stats
		fmt.Fprintf(stdout, "stats: rr=%d builds=%d avgGraph=%.1f peak=%d covered=%d rules=%d pruned=%d\n",
			st.NumRR, st.GraphBuilds, st.AvgGraphSize(), st.PeakResidentSize, st.CoveredRR,
			st.RulesTotal, st.RulesPruned)
		fmt.Fprintf(stdout, "time: build=%v rrGen=%v select=%v total=%v\n",
			st.BuildTime, st.RRGenTime, st.SelectTime, st.TotalTime)
		if st.PlansBuilt > 0 {
			fmt.Fprintf(stdout, "plans: built=%d cacheHits=%d reordered=%d\n",
				st.PlansBuilt, st.PlanCacheHits, st.PlanAtomsReordered)
		}
		if st.Groundings > 0 {
			fmt.Fprintf(stdout, "groundings: %d (%d aborted at the cap)\n", st.Groundings, st.GroundAborts)
		}
	}
	if *estimate {
		est, err := contribmax.NewEstimator(in)
		if err != nil {
			return err
		}
		c, se, err := est.ContributionCI(res.Seeds, 10000, opts.Rand)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Monte-Carlo contribution of seeds: %.4f ± %.4f\n", c, 2*se)
	}
	return nil
}

// emitJSON writes the result in a stable machine-readable shape.
func emitJSON(w io.Writer, res *contribmax.Result, targets []contribmax.Atom) error {
	type out struct {
		Algorithm       string   `json:"algorithm"`
		Seeds           []string `json:"seeds"`
		SeedGains       []int    `json:"seedGains"`
		EstContribution float64  `json:"estContribution"`
		Targets         int      `json:"targets"`
		RRSets          int      `json:"rrSets"`
		GraphBuilds     int      `json:"graphBuilds"`
		AvgGraphSize    float64  `json:"avgGraphSize"`
		PeakGraphSize   int      `json:"peakGraphSize"`
		RulesTotal      int      `json:"rulesTotal"`
		RulesPruned     int      `json:"rulesPruned"`
		ExactFallback   string   `json:"exactFallback,omitempty"`
		Groundings      int      `json:"groundings,omitempty"`
		GroundAborts    int      `json:"groundAborts,omitempty"`
		TotalMillis     float64  `json:"totalMillis"`
	}
	o := out{
		Algorithm:       res.Algorithm,
		SeedGains:       res.SeedGains,
		EstContribution: res.EstContribution,
		Targets:         len(targets),
		RRSets:          res.Stats.NumRR,
		GraphBuilds:     res.Stats.GraphBuilds,
		AvgGraphSize:    res.Stats.AvgGraphSize(),
		PeakGraphSize:   res.Stats.PeakResidentSize,
		RulesTotal:      res.Stats.RulesTotal,
		RulesPruned:     res.Stats.RulesPruned,
		ExactFallback:   res.Stats.ExactFallback,
		Groundings:      res.Stats.Groundings,
		GroundAborts:    res.Stats.GroundAborts,
		TotalMillis:     float64(res.Stats.TotalTime.Microseconds()) / 1000,
	}
	for _, s := range res.Seeds {
		o.Seeds = append(o.Seeds, s.String())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(o)
}
