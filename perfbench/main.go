// Command perfbench is contribmax's end-to-end benchmark. It drives the
// workload generators, parser and database, analysis, the CM solvers, the
// solve cache and the HTTP server from outside, through their exported
// functions, verifies every answer, and prints its metrics: by name with
// unit and sample count for people, then one JSON result line.
//
// Workloads:
//
//	magics-amie    closed loop, MagicSampledCM at Parallelism 1 on AMIE-8
//	naive-explain  closed loop, NaiveCM at Parallelism 2 on Explain-160
//	serve-mix      open loop of solve and batch requests against the server
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload magics-amie --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it reports the per-layer metrics instead, from spans it
// records around its own calls into each package (see replay.go), and
// writes the spans to the -trace-dir directory.
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"contribmax/internal/ast"
	"contribmax/internal/cm"
	"contribmax/internal/parser"
)

// runOptions are the command-line settings of one run.
type runOptions struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	traceDir string
}

func (o runOptions) spanPath() string {
	return filepath.Join(o.traceDir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		o      runOptions
		trace  int
		rate   = fs.Float64("serve-rate", 0, "serve-mix arrival rate in requests/s")
		ladder = fs.String("serve-ladder", "", "serve-mix max_rps_under_slo rates, comma-separated, ascending")
		slo    = fs.Float64("slo-p90-ms", 0, "serve-mix p90 latency limit in ms")
	)
	fs.StringVar(&o.workload, "workload", "", "magics-amie | naive-explain | serve-mix")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run")
	fs.StringVar(&o.traceDir, "trace-dir", ".", "directory for the traced run's spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.traced = trace == 1
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	rep := newReport(o.workload, o.traced, hostFingerprint(root, o.seed))

	if cfg, ok := closedWorkloads[o.workload]; ok {
		if o.traced {
			err = runClosedTraced(cfg, o, rep)
		} else {
			err = runClosed(cfg, o, rep)
		}
	} else if o.workload == "serve-mix" {
		var sc serveConfig
		sc, err = parseServeConfig(*rate, *ladder, *slo)
		if err == nil {
			err = runServe(sc, o, rep, o.traced)
		}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !rep.print(os.Stdout) {
		return 1
	}
	return 0
}

// parseServeConfig validates the serve-mix constants.
func parseServeConfig(rate float64, ladder string, slo float64) (serveConfig, error) {
	sc := serveConfig{rate: rate, sloMs: slo}
	if rate <= 0 || slo <= 0 {
		return sc, fmt.Errorf("serve-mix needs -serve-rate and -slo-p90-ms")
	}
	for _, f := range strings.Split(ladder, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v <= 0 {
			return sc, fmt.Errorf("bad -serve-ladder rate %q", f)
		}
		if n := len(sc.ladder); n > 0 && v <= sc.ladder[n-1] {
			return sc, fmt.Errorf("-serve-ladder must ascend")
		}
		sc.ladder = append(sc.ladder, v)
	}
	return sc, nil
}

// repoRoot is the working directory, which must hold the module the
// benchmark measures.
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(filepath.Join(wd, "go.mod")); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	return wd, nil
}

// oracleSeed fixes the percolation oracle's sample stream.
const oracleSeedA, oracleSeedB = 0xE571, 0x0A7E

// oracle is the percolation oracle of seed_contribution: the expected
// number of targets reached from seeds under edge percolation (Definition
// 3.4), estimated by cm.NewEstimator with a fixed sample count and stream.
func oracle(in *instance, targets []ast.Atom, seeds []string, samples int) (float64, error) {
	est, err := cm.NewEstimator(cm.Input{Program: in.prog, DB: in.db, T2: targets, K: 1})
	if err != nil {
		return 0, fmt.Errorf("oracle: %w", err)
	}
	atoms := make([]ast.Atom, len(seeds))
	for i, s := range seeds {
		if atoms[i], err = parser.ParseAtom(s); err != nil {
			return 0, fmt.Errorf("oracle: seed %q: %w", s, err)
		}
	}
	return est.Contribution(atoms, samples, rand.New(rand.NewPCG(oracleSeedA, oracleSeedB)))
}
