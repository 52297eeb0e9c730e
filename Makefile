# Development targets. CI (.github/workflows/ci.yml) runs check + lint.

GO ?= go

# Every checked-in datalog program outside the seeded-defect corpus
# (testdata/analysis holds intentionally broken programs with .golden
# expectations; the golden test in internal/analysis covers those).
DL_PROGRAMS := $(shell find examples testdata -name '*.dl' -not -path 'testdata/analysis/*' | sort)

.PHONY: all build test race check lint staticcheck fmt bench bench-report fuzz journal-demo loc

all: check lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages that evaluate programs concurrently, then ten repetitions
# of the engine's pipelined-delivery tests (lifetime, panics, cancel,
# byte-identity), whose goroutine interleavings vary run to run, then ten
# of the compiled-program binding tests and the solver determinism
# battery, whose RR workers bind one compiled Magic program at once, then
# ten of the shared-grounding tests: propagators that share one
# multi-seed grounding must write only state they own, a propagator
# reused across groundings of different sizes must reset every mask a
# pass touched, and a worker releases each grounding before its next,
# then ten of the lock-free readers of shared tables: RR workers probe
# and lazily index shared edb relations, the solve cache's requests call
# FactID on one shared graph, and the first reader of a graph's
# out-edges builds them while other readers race for the same state.
race:
	$(GO) test -race ./internal/cm ./internal/db ./internal/im ./internal/engine ./internal/engine/difftest ./internal/magic ./internal/obs ./internal/obs/instr ./internal/obs/journal ./internal/planner ./internal/prof ./internal/server ./internal/solvecache ./internal/wdgraph
	$(GO) test -race -count=10 -run 'Parallel|Pipeline' ./internal/engine ./internal/engine/difftest
	$(GO) test -race -count=10 -run 'TestShapeBind|TestDeterminismAcrossParallelism' ./internal/engine ./internal/magic ./internal/cm
	$(GO) test -race -count=10 -run 'TestPropagatorsShareGrounding|TestPropagatorReuse|TestGroundingReleasedPerGroup' ./internal/magic ./internal/cm
	$(GO) test -race -count=10 -run 'TestRelationConcurrentReaders|TestFactIDConcurrentReaders|TestConcurrentGraphReads' ./internal/db ./internal/wdgraph

# Run every Go micro-benchmark once: a compile-and-run guard for the bench
# code. Meaningful numbers need -benchtime left at its default; compare
# RIS-path results against the committed BENCH_baseline.json (see
# docs/PERFORMANCE.md).
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Machine-readable benchmark report (cmbench figures as BENCH_quick.json).
bench-report:
	$(GO) run ./cmd/cmbench -fig 7a -json BENCH_quick.json

# End-to-end journal demo: solve the paper's trade example with the event
# journal on, then render the convergence curves (see docs/OBSERVABILITY.md).
journal-demo:
	$(GO) run ./cmd/cmrun -program testdata/trade.dl -facts testdata/trade.facts \
		-target 'dealsWith(russia, ukraine)' -k 2 -rr 1000 \
		-journal /tmp/contribmax-journal.jsonl
	$(GO) run ./cmd/cmjournal /tmp/contribmax-journal.jsonl

# Short fuzz runs: the parse -> analyze -> stratify -> evaluate pipeline
# (asserting pipelined delivery to the listener, Parallelism >= 2, stays
# byte-identical to sequential evaluation on every input the pipeline
# accepts), then the exact-vs-RIS estimator
# differential (random hierarchical instances; the sampled estimate must
# stay within its error proxy of the exact lifted value), then Magic^S's
# grounding differential (random positive programs; every slot of a
# masked propagation pass, over a target's own grounding and from its own
# seed over its predicate's multi-seed grounding, alone, with its
# target's other seeds and mixed with the predicate's other targets, must
# reproduce its own engine-gated sampled run).
# CI runs the same smokes; longer local runs: make fuzz FUZZTIME=10m
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/engine -run=NONE -fuzz=FuzzEvalProgram -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/cm -run=NONE -fuzz=FuzzExactVsRIS -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/magic -run=NONE -fuzz=FuzzGroundedVsGated -fuzztime=$(FUZZTIME)

# perfbench is a module of its own, so go vet ./... and go test ./... skip
# it; it imports the packages above, so vet and test it here as well.
check: build test race
	$(GO) vet ./...
	cd perfbench && $(GO) vet . && $(GO) test .

# Static-analyze every example and testdata program; warnings are
# reported but only errors (or missing files) fail the build.
lint:
	$(GO) run ./cmd/cmlint $(DL_PROGRAMS)

# Go static analysis beyond vet. CI installs staticcheck and govulncheck
# at workflow time; locally each runs when on PATH and is skipped (with a
# note) otherwise, so the target never requires a network install.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

fmt:
	gofmt -l -w .

# Non-test Go lines outside perfbench/ (a module of its own) and
# .bench_build/ (its build cache): the total, then the count without blank
# and comment-only lines. The ROADMAP scores its simplicity aim by these.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './perfbench/*' -not -path './.bench_build/*' -exec cat {} + | \
		awk '{n++} !/^[ \t]*$$/ && !/^[ \t]*\/\// {c++} END {printf "non-test Go: %d lines, %d without blanks and comments\n", n, c}'

