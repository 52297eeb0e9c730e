// Command cmserve runs the HTTP interface for Contribution Maximization —
// the interactive front end the paper's conclusions propose: a form (and
// JSON API) where users specify their input/output tuple sets of interest,
// with patterns, and get the most contributing facts back.
//
// Usage:
//
//	cmserve -addr :8080 [-solve-timeout 30s] [-cache-size 256] [-max-concurrent 4] [-tenant-quota 2]
//	# then open http://localhost:8080/ or:
//	curl -s localhost:8080/api/solve -d '{"program":"...","facts":"...","targets":["p(a, X)"]}'
//	curl -s localhost:8080/api/solve/batch -d '{"program":"...","facts":"...","solves":[{"targets":["p(a, X)"],"k":1},{"targets":["p(a, X)"],"k":2}]}'
//	curl -s localhost:8080/metrics          # live counters, expvar-style JSON
//	curl -s 'localhost:8080/metrics?format=prometheus'  # Prometheus text format
//	curl -s localhost:8080/api/solve/start -d @req.json # async journaled solve (202 + run ID)
//	curl -sN localhost:8080/solve/RUNID/events          # live progress (SSE)
//	curl -s  localhost:8080/journal/RUNID               # journal replay (JSONL; pipe to cmjournal -)
//	go tool pprof localhost:8080/debug/pprof/profile   # CPU, with per-solve labels
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight solves get
// up to the solve timeout to finish, new connections are refused.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"contribmax/internal/obs"
	"contribmax/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cmserve:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	solveTimeout := flag.Duration("solve-timeout", 60*time.Second, "per-request solve deadline (0 = none)")
	warnFlag := flag.String("W", "", `"error" rejects requests whose programs have static-analysis warnings, matching cmrun -W error`)
	cacheMB := flag.Int64("cache-size", 0, "solve-cache bound in MiB (0 = default 256; negative disables caching)")
	maxConcurrent := flag.Int("max-concurrent", 0, "max solves executing at once (0 = unlimited); excess queues, then sheds with 429")
	maxQueue := flag.Int("queue", 0, "max solves waiting for a slot (0 = 2 x max-concurrent)")
	queueWait := flag.Duration("queue-wait", 0, "max time a queued solve waits before shedding (0 = 10s)")
	tenantQuota := flag.Int("tenant-quota", 0, "max concurrent solves per tenant, keyed by the X-Tenant header (0 = no quotas)")
	maxRuns := flag.Int("max-runs", 0, "max async runs retained (0 = default 128); finished runs evict LRU-first")
	flag.Parse()
	if *warnFlag != "" && *warnFlag != "error" {
		return fmt.Errorf("-W accepts only \"error\", got %q", *warnFlag)
	}
	cacheBytes := *cacheMB * (1 << 20)
	if *cacheMB < 0 {
		cacheBytes = -1
	}

	reg := obs.NewRegistry()
	mux := http.NewServeMux()
	mux.Handle("/", server.NewWith(server.Config{
		Obs:                 reg,
		SolveTimeout:        *solveTimeout,
		WarnAsError:         *warnFlag == "error",
		CacheBytes:          cacheBytes,
		MaxConcurrentSolves: *maxConcurrent,
		MaxQueueDepth:       *maxQueue,
		QueueWait:           *queueWait,
		TenantQuota:         *tenantQuota,
		MaxRuns:             *maxRuns,
	}))
	// net/http/pprof registers on DefaultServeMux; mount its handlers
	// explicitly since this server uses its own mux.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("contribmax: listening on http://%s/\n", *addr)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("contribmax: shutting down")
	grace := *solveTimeout
	if grace <= 0 {
		grace = 30 * time.Second
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
