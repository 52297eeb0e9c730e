// Command cmjournal renders a solve journal (the JSONL event stream
// written by `cmrun -journal`, `GET /journal/{id}`, or any
// Options.Journal sink) as human-readable text: a run summary plus the
// convergence curves — RR generation progress, adaptive IMM rounds,
// fixpoint round deltas, and the greedy selection's gain/coverage/error
// trajectory.
//
// Usage:
//
//	cmjournal solve.jsonl           # summary and curves
//	cmjournal -events solve.jsonl   # raw event listing instead
//	cmrun ... -journal /dev/stdout | cmjournal -    # from a pipe
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"contribmax/internal/obs/journal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cmjournal:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		events   = flag.Bool("events", false, "list every event (seq, time, type, payload) instead of the summary")
		maxRound = flag.Int("rounds", 20, "show at most this many fixpoint rounds (0 = all)")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: cmjournal [-events] [-rounds N] FILE  (- for stdin)")
		os.Exit(2)
	}
	var in io.Reader = os.Stdin
	if args[0] != "-" {
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	evs, err := decode(in)
	if err != nil {
		return err
	}
	if len(evs) == 0 {
		return fmt.Errorf("empty journal")
	}
	if *events {
		return listEvents(os.Stdout, evs)
	}
	return render(os.Stdout, evs, *maxRound)
}

// decode reads JSONL events, skipping blank lines.
func decode(r io.Reader) ([]journal.Event, error) {
	var evs []journal.Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev journal.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		evs = append(evs, ev)
	}
	return evs, sc.Err()
}

func listEvents(w io.Writer, evs []journal.Event) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "seq\tt\ttype\tpayload")
	for _, ev := range evs {
		payload, _ := json.Marshal(ev)
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\n", ev.Seq, durStr(ev.TNs), ev.Type, trimEnvelope(payload))
	}
	return tw.Flush()
}

// trimEnvelope drops the envelope fields from a marshaled event so the
// listing shows just the typed payload.
func trimEnvelope(b []byte) string {
	var m map[string]json.RawMessage
	if json.Unmarshal(b, &m) != nil {
		return string(b)
	}
	for _, k := range []string{"seq", "t_ns", "run", "type"} {
		delete(m, k)
	}
	out, err := json.Marshal(m)
	if err != nil {
		return string(b)
	}
	return string(out)
}

func durStr(ns int64) string {
	return time.Duration(ns).Round(10 * time.Microsecond).String()
}

func render(w io.Writer, evs []journal.Event, maxRound int) error {
	var (
		start  *journal.SolveInfo
		finish *journal.FinishInfo
		rounds []journal.RoundInfo
		builds []journal.BuildInfo
		rr     []journal.Event // rr.batch, in seq order
		imm    []journal.IMMInfo
		iters  []journal.IterInfo
		plan   *journal.PlanInfo
		cache  *journal.CacheInfo
		est    *journal.EstInfo
		prof   *journal.ProfileInfo
		route  *journal.RouteInfo
		run    string
		endNs  int64
	)
	for _, ev := range evs {
		run = ev.Run
		switch ev.Type {
		case journal.TypeSolveStart:
			start = ev.Solve
		case journal.TypeSolveFinish:
			finish = ev.Finish
			endNs = ev.TNs
		case journal.TypeEngineRound:
			rounds = append(rounds, *ev.Round)
		case journal.TypeGraphBuild:
			builds = append(builds, *ev.Build)
		case journal.TypeRRBatch:
			rr = append(rr, ev)
		case journal.TypeIMMRound:
			imm = append(imm, *ev.IMM)
		case journal.TypeSelectIter:
			iters = append(iters, *ev.Iter)
		case journal.TypePlanSummary:
			plan = ev.Plan
		case journal.TypeCacheSummary:
			cache = ev.Cache
		case journal.TypeEstimatorSummary:
			est = ev.Est
		case journal.TypeProfileSummary:
			prof = ev.Profile
		case journal.TypeRRRoute:
			route = ev.Route
		}
	}

	fmt.Fprintf(w, "run %s: %d events", run, len(evs))
	if evs[0].Seq > 1 {
		fmt.Fprintf(w, " (ring-evicted; first retained seq %d)", evs[0].Seq)
	}
	fmt.Fprintln(w)
	if start != nil {
		fmt.Fprintf(w, "solve: %s  k=%d  candidates=%d  targets=%d", start.Algorithm, start.K, start.Candidates, start.Targets)
		if start.Adaptive {
			fmt.Fprintf(w, "  theta=adaptive")
		} else {
			fmt.Fprintf(w, "  theta=%d", start.Theta)
		}
		if start.Parallelism > 1 {
			fmt.Fprintf(w, "  parallelism=%d", start.Parallelism)
		}
		fmt.Fprintf(w, "\nconfig fingerprint: %s\n", start.Fingerprint)
	}

	if len(builds) > 0 {
		fmt.Fprintln(w, "\ngraph builds:")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "nodes\tedges\ttime\t")
		for _, b := range builds {
			fmt.Fprintf(tw, "%d\t%d\t%s\t\n", b.Nodes, b.Edges, durStr(b.DurationNs))
		}
		tw.Flush()
	}

	if len(rounds) > 0 {
		fmt.Fprintln(w, "\nfixpoint rounds (delta = new facts):")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "round\tdelta\t")
		shown := rounds
		if maxRound > 0 && len(shown) > maxRound {
			shown = shown[:maxRound]
		}
		for _, r := range shown {
			fmt.Fprintf(tw, "%d\t%d\t\n", r.Round, r.Delta)
		}
		tw.Flush()
		if len(shown) < len(rounds) {
			fmt.Fprintf(w, "  ... %d more rounds (-rounds 0 for all)\n", len(rounds)-len(shown))
		}
	}

	if len(imm) > 0 {
		fmt.Fprintln(w, "\nadaptive sampling (IMM phase-1 rounds):")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "round\tx\ttheta\test\tlb\t")
		for _, m := range imm {
			lb := "-"
			if m.LB > 0 {
				lb = fmt.Sprintf("%.3f", m.LB)
			}
			fmt.Fprintf(tw, "%d\t%.3f\t%d\t%.3f\t%s\t\n", m.Round, m.X, m.Theta, m.Est, lb)
		}
		tw.Flush()
	}

	if len(rr) > 0 {
		fmt.Fprintln(w, "\nRR generation (per flushed batch):")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "t\tworker\tsets\tavg members\tmax\tworker total\t")
		globalSets, globalMembers := 0, 0
		for _, ev := range rr {
			b := ev.RR
			avg := 0.0
			if b.Sets > 0 {
				avg = float64(b.Members) / float64(b.Sets)
			}
			globalSets += b.Sets
			globalMembers += b.Members
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%d\t%d\t\n", durStr(ev.TNs), b.Worker, b.Sets, avg, b.MaxLen, b.TotalSets)
		}
		tw.Flush()
		avg := 0.0
		if globalSets > 0 {
			avg = float64(globalMembers) / float64(globalSets)
		}
		fmt.Fprintf(w, "  total: %d sets, %.1f members/set\n", globalSets, avg)
	}

	if route != nil {
		renderRoute(w, route)
	}

	if len(iters) > 0 {
		fmt.Fprintln(w, "\nselection convergence (gain per iteration, coverage vs RR count):")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "iter\tseed\tgain\tcovered\tcoverage\terr proxy")
		for _, it := range iters {
			fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%.1f%%\t%.4f\n",
				it.I+1, it.Seed, it.Gain, it.Covered, 100*it.Coverage, it.ErrProxy)
		}
		tw.Flush()
	}

	if plan != nil {
		fmt.Fprintf(w, "\njoin planner: %d plans built, %d cache hits, %d atoms reordered\n",
			plan.Built, plan.Hits, plan.Reordered)
	}

	if est != nil {
		if est.Fallback != "" {
			fmt.Fprintf(w, "\nestimator: fell back to %s sampling (%s)\n", est.Algorithm, est.Fallback)
		} else {
			fmt.Fprintf(w, "\nestimator (%s): %d lineages, %d clauses / %d vars, extracted in %s",
				est.Algorithm, est.Targets, est.Clauses, est.Vars, durStr(est.LineageNs))
			if est.Samples > 0 {
				fmt.Fprintf(w, ", %d worlds sampled", est.Samples)
			}
			fmt.Fprintln(w)
		}
	}

	if prof != nil {
		fmt.Fprintf(w, "\nruntime profile: %d engine runs over %d rules, %d derived / %d attempted in %s",
			prof.EngineRuns, prof.Rules, prof.Derived, prof.Attempted, durStr(prof.EvalNs))
		if prof.Walks > 0 {
			fmt.Fprintf(w, "; %d RR walks in %s", prof.Walks, durStr(prof.WalkNs))
		}
		fmt.Fprintln(w)
		if len(prof.TopRules) > 0 {
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "rule\tderived\tself time")
			for _, r := range prof.TopRules {
				fmt.Fprintf(tw, "%s\t%d\t%s\n", r.Rule, r.Derived, durStr(r.SelfNs))
			}
			tw.Flush()
			fmt.Fprintln(w, "  (full per-rule detail: cmrun -explain / -profile-json)")
		}
	}

	if cache != nil {
		fmt.Fprintf(w, "\nsolve cache: graph %d hit / %d miss, rr %d hit / %d miss",
			cache.GraphHits, cache.GraphMisses, cache.RRHits, cache.RRMisses)
		if cache.BytesReused > 0 {
			fmt.Fprintf(w, ", %.1f MiB reused", float64(cache.BytesReused)/(1<<20))
		}
		fmt.Fprintln(w)
	}

	if finish != nil {
		fmt.Fprintf(w, "\nfinished in %s: ", durStr(finish.DurationNs))
		if finish.Err != "" {
			fmt.Fprintf(w, "ERROR: %s\n", finish.Err)
		} else {
			fmt.Fprintf(w, "%d seeds, covered %d/%d RR sets, estimated contribution %.4f\n",
				len(finish.Seeds), finish.CoveredRR, finish.NumRR, finish.EstContribution)
		}
	} else {
		fmt.Fprintf(w, "\nno solve.finish event — journal ends at %s (solve interrupted?)\n", durStr(endNs))
	}
	return nil
}

// renderRoute prints Magic^S's RR route counts, per target-predicate
// group.
func renderRoute(w io.Writer, r *journal.RouteInfo) {
	fmt.Fprintf(w, "\nRR route (Magic^S, c=%g): %d targets in %d predicate groups, %d slots; first slot of each group gated\n",
		r.C, r.Targets, r.Groups, r.Slots)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "route\tgroups\tslots\tdetail")
	fmt.Fprintf(tw, "grounded, rest propagated\t%d\t%d\tone grounding per group, each slot from its target's seed\n", r.Grounded, r.GroundedSlots)
	fmt.Fprintf(tw, "cap tripped, rest gated\t%d\t%d\tcap c*(n-1)*A1 with A1 total %d\n", r.CapTripped, r.CapSlots, r.CapA1)
	fmt.Fprintf(tw, "too few slots, rest gated\t%d\t%d\tc*(n-d) <= 1, d targets in the group\n", r.TooFew, r.TooFewSlots)
	tw.Flush()
}
