// Command dpmd serves the simulation engine over HTTP/JSON as a
// hardened long-running service.
//
// Usage:
//
//	dpmd -addr :8080
//	curl -XPOST localhost:8080/v1/sim -d '{"bench":"swim","scheme":"CMDRPM"}'
//	curl -XPOST 'localhost:8080/v1/experiment?timeout=30s' -d '{"id":"fig3"}'
//	curl localhost:8080/v1/experiments
//	curl localhost:8080/readyz
//
// Robustness (the point of the daemon; see docs/serving.md):
//
//	-inflight N         concurrently executing requests (0 = GOMAXPROCS)
//	-queue N            waiting requests beyond that before load
//	                    shedding with 429 + Retry-After (0 = 4x inflight)
//	-queue-wait D       max time a queued request waits for a slot
//	-timeout D          default per-request deadline; clients override
//	                    with ?timeout=, capped by -max-timeout. Expiry
//	                    returns 504 with partial-progress metadata
//	-max-timeout D      upper bound on client-requested deadlines
//	-drain-timeout D    graceful-drain bound: on SIGTERM/SIGINT the
//	                    listener stops, /readyz turns 503, in-flight
//	                    requests get this long to finish, and the
//	                    journal is finalized atomically before exit 0
//	-journal FILE       shared crash-safe cell journal (same keys as
//	                    dpmexp -journal; the files are interchangeable)
//	-resume             reopen the -journal instead of truncating
//	-journal-retries N  append retries (with backoff) before the
//	                    daemon degrades to memory-only operation
//	-journal-backoff D  initial sleep between append retries (doubles)
//	-journal-reprobe D  while degraded, re-probe the journal at this
//	                    interval and auto-recover once the filesystem
//	                    heals (0 = stay degraded until restart)
//	-max-body N         request-body byte cap; larger bodies get a
//	                    typed 413 (0 = 1 MiB)
//	-retries N          extra attempts for failing/panicking cells
//	-chaos SPEC         deterministic self-fault injection for testing:
//	                    "seed=1,stall=0.3,stall_ms=200,panic=0.05"
//	                    stalls/panics that fraction of requests; panics
//	                    are isolated per request (500), never fatal.
//	                    The spec uses the -faults grammar (commas or
//	                    whitespace, '#' comments, case-insensitive
//	                    keys); seed is an integer
//
// Degraded mode: dpmd survives persistence faults. If a journal
// append keeps failing past its retry budget — or tears the file or
// breaks an fsync, after which retrying cannot help — the daemon
// degrades instead of failing requests: results keep being computed
// and served from memory, /readyz reports "degraded: journal" (still
// 200), /status carries the reason, and requests that set
// "durable": true receive a typed 503 rather than a silently
// non-durable success. Cells journaled before the fault stay durable
// and are recovered by the next -resume. See docs/robustness.md.
//
// Observability: /metrics (Prometheus, including serve_* queue/shed/
// deadline/drain series and sdpm_serve_journal_errors_total),
// /status (JSON snapshot), /debug/pprof/, /healthz (liveness),
// /readyz (readiness; 503 while draining).
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sdpm/internal/cli"
	"sdpm/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	inflight := flag.Int("inflight", 0, "max concurrently executing requests (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max requests waiting for a slot before shedding with 429 (0 = 4x -inflight)")
	queueWait := flag.Duration("queue-wait", time.Second, "max time a queued request waits for an execution slot")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline (clients override with ?timeout=, capped by -max-timeout)")
	maxTimeout := flag.Duration("max-timeout", 2*time.Minute, "cap on client-requested ?timeout= deadlines")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "bound on graceful drain after SIGTERM/SIGINT")
	workers := flag.Int("workers", 0, "simulation workers per experiment request (0 = GOMAXPROCS); output is identical for every value")
	retries := flag.Int("retries", 0, "extra attempts for a failing or panicking experiment cell")
	journalPath := flag.String("journal", "", "record completed experiment cells to this crash-safe journal; finalized atomically on drain")
	resume := flag.Bool("resume", false, "reopen the -journal file and serve cells it already holds (requires -journal)")
	journalRetries := flag.Int("journal-retries", 0, "journal append retries before degrading to memory-only operation (0 = 2, negative = none)")
	journalBackoff := flag.Duration("journal-backoff", 0, "initial sleep between journal append retries, doubling per attempt (0 = 10ms)")
	journalReprobe := flag.Duration("journal-reprobe", 0, "while degraded, re-probe the journal at this interval and auto-recover when the filesystem heals (0 = never)")
	maxBody := flag.Int64("max-body", 0, "max request body bytes; larger bodies get a typed 413 (0 = 1 MiB)")
	chaosSpec := flag.String("chaos", "", "deterministic self-fault injection spec in the -faults key=value grammar: seed=INT,stall=P,stall_ms=MS,panic=P (empty or 'off' disables)")
	verbose, quiet := cli.LogFlags(flag.CommandLine)
	flag.Parse()
	cli.SetupLogging("dpmd", *verbose, *quiet)

	if *resume && *journalPath == "" {
		cli.Fatal(errors.New("-resume requires -journal"))
	}
	chaos, err := serve.ParseChaos(*chaosSpec)
	if err != nil {
		cli.Fatal(err)
	}
	if chaos != nil {
		slog.Warn("chaos mode armed: injecting deterministic stalls/panics", "spec", *chaosSpec)
	}
	srv, err := serve.New(serve.Config{
		MaxInflight:         *inflight,
		MaxQueue:            *queue,
		QueueWait:           *queueWait,
		DefaultTimeout:      *timeout,
		MaxTimeout:          *maxTimeout,
		DrainTimeout:        *drainTimeout,
		Workers:             *workers,
		Retries:             *retries,
		JournalPath:         *journalPath,
		Resume:              *resume,
		JournalRetries:      *journalRetries,
		JournalRetryBackoff: *journalBackoff,
		JournalReprobe:      *journalReprobe,
		MaxBody:             *maxBody,
		Chaos:               chaos,
	})
	if err != nil {
		cli.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cli.Fatal(err)
	}
	// A request's headers are a few short fields (the Idempotency-Key is
	// capped at 256 bytes), so 64 KiB replaces net/http's 1 MiB default;
	// a larger header block gets net/http's 431.
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second, MaxHeaderBytes: 64 << 10}
	errCh := make(chan error, 1)
	go func() {
		if serr := httpSrv.Serve(ln); serr != nil && serr != http.ErrServerClosed {
			errCh <- serr
		}
	}()
	slog.Info("dpmd listening", "addr", ln.Addr().String(), "inflight", *inflight, "queue", *queue, "journal", *journalPath)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		slog.Info("signal received; draining", "signal", sig.String())
	case serr := <-errCh:
		cli.Fatal(serr)
	}

	// Graceful drain: readiness flips first so load balancers stop
	// routing, the listener closes, in-flight requests finish within
	// the drain budget, and the journal finalizes atomically. Exit 0
	// only on a fully clean drain.
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if serr := httpSrv.Shutdown(ctx); serr != nil {
		slog.Warn("listener shutdown incomplete", "err", serr)
	}
	if serr := srv.Drain(ctx); serr != nil {
		cli.Fatal(serr)
	}
	slog.Info("drain complete; exiting")
}
