// Command dpmexp regenerates the paper's tables and figures.
//
// Usage:
//
//	dpmexp -run all
//	dpmexp -run fig3
//	dpmexp -list
//
// Observability:
//
//	-metrics-out FILE   write Prometheus text-format metrics for the
//	                    whole run (simulation latency histograms,
//	                    per-disk residency, instance-cache hit/miss/
//	                    singleflight counts, worker-pool utilization)
//	                    after the experiments complete; "-" writes to
//	                    stderr so stdout keeps only the tables
//	-events-out FILE    write the suite's decision-provenance event
//	                    log as JSON Lines after the experiments (every
//	                    power decision with trigger, inputs, measured
//	                    idle, and energy regret, plus bail-outs, fault
//	                    lifecycle, retries, and journal hits/misses);
//	                    "-" writes to stderr. Query with dpmquery.
//	-http ADDR          serve live introspection while the suite runs:
//	                    /metrics (Prometheus), /status (JSON snapshot
//	                    of the runner's gauges), /debug/pprof/
//	-v / -q             debug-level / warnings-only structured logs
//
// Every output file (-metrics-out, -events-out) is written atomically:
// a temp file is fsynced and renamed over the destination, so a failed
// or killed run never leaves a partial file.
//
// Robustness:
//
//	-journal FILE       record every completed experiment cell to a
//	                    crash-safe append-only journal (fsynced and
//	                    CRC-protected per record)
//	-resume             reopen the -journal file and skip cells that
//	                    already hold a valid record; output is
//	                    byte-identical to an uninterrupted run. A run
//	                    that dies on a journal I/O error (disk full,
//	                    torn write) keeps every fsynced cell: -resume
//	                    recovers them, recomputing only the rest
//	-audit              verify conservation invariants (energy and
//	                    time bookkeeping, disk state-machine legality)
//	                    after every simulation; fail loudly on drift
//	-retries N          re-run a failing or panicking cell up to N
//	                    extra times before reporting its error
//	-timeout D          overall wall-clock budget (e.g. 5m); expiry
//	                    cancels in-flight cells like SIGINT does, and
//	                    partial metrics, events, and journal records
//	                    are still flushed before the non-zero exit
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"sdpm"
	"sdpm/internal/cli"
	"sdpm/internal/obs"
)

func main() {
	run := flag.String("run", "all", "experiment id (or 'all')")
	format := flag.String("format", "text", "output format: text or csv")
	workers := flag.Int("workers", 0, "worker goroutines per experiment (0 = GOMAXPROCS, 1 = sequential); output is identical for every value")
	list := flag.Bool("list", false, "list experiment ids and exit")
	metricsOut := flag.String("metrics-out", "", "write Prometheus text-format metrics to this file after the experiments (- for stderr)")
	eventsOut := flag.String("events-out", "", "write the decision-provenance event log as JSON Lines to this file after the experiments (- for stderr); query with dpmquery")
	eventsCap := flag.Int("events-cap", 0, "event ring capacity for -events-out (0 = default; oldest events drop past the cap)")
	httpAddr := flag.String("http", "", "serve live /metrics, /status, and /debug/pprof on this address (e.g. :6060) while the experiments run")
	faultSpec := flag.String("faults", "", "fault-injection spec: preset (off/light/moderate/heavy), key=value list, or @file (read here; dpmd rejects @file); empty = fault-free")
	faultSeed := flag.Int64("fault-seed", 1, "fault schedule seed; the same seed reproduces the exact fault pattern at any -workers count")
	journalPath := flag.String("journal", "", "record completed experiment cells to this crash-safe journal file")
	resume := flag.Bool("resume", false, "reopen the -journal file and skip cells it already holds (requires -journal)")
	audit := flag.Bool("audit", false, "verify conservation invariants after every simulation; fail on any violation")
	retries := flag.Int("retries", 0, "extra attempts for a failing or panicking experiment cell")
	timeout := flag.Duration("timeout", 0, "overall wall-clock budget for the run (e.g. 90s, 5m); on expiry in-flight cells cancel cleanly and partial metrics/events/journal records are still flushed before the non-zero exit (0 = no limit)")
	verbose, quiet := cli.LogFlags(flag.CommandLine)
	flag.Parse()
	cli.SetupLogging("dpmexp", *verbose, *quiet)

	if *list {
		for _, id := range sdpm.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}
	// SIGINT/SIGTERM — and the -timeout budget, when set — cancel
	// in-flight experiment cells; partial metrics are still flushed
	// before the process exits non-zero.
	ctx, stop := cli.RootContext(*timeout)
	defer stop()
	if *resume && *journalPath == "" {
		cli.Fatal(fmt.Errorf("-resume requires -journal"))
	}
	spec, err := cli.ExpandSpecFile(*faultSpec)
	if err != nil {
		cli.Fatal(err)
	}
	opts := sdpm.Options{
		Format: *format, Workers: *workers, Ctx: ctx,
		FaultSpec: spec, FaultSeed: *faultSeed,
		Journal: *journalPath, Resume: *resume,
		Audit: *audit, Retries: *retries,
	}
	// The tables own stdout, so "-" routes metrics and events to
	// stderr. Both are buffered and written once the run returns: a
	// file destination is then replaced atomically, never truncated.
	var metricsBuf, eventsBuf bytes.Buffer
	if *metricsOut != "" {
		opts.Metrics = &metricsBuf
	}
	if *eventsOut != "" {
		opts.Events = &eventsBuf
		opts.EventCapacity = *eventsCap
	}
	if *httpAddr != "" {
		// A shared collector lets the endpoint scrape the suite live;
		// -metrics-out (if also set) dumps the same collector at the end.
		opts.Collector = obs.New()
		id := *run
		_, shutdown, err := cli.StartDebugServer(*httpAddr, opts.Collector, func() any {
			return map[string]any{"tool": "dpmexp", "run": id}
		})
		if err != nil {
			cli.Fatal(err)
		}
		defer shutdown()
	}
	runErr := sdpm.RunExperiments(*run, os.Stdout, opts)
	// RunExperiments wrote (possibly partial) metrics and events even
	// on failure or cancellation; flush whatever it produced.
	flush := func(path, what string, buf *bytes.Buffer) {
		if path == "" {
			return
		}
		err := cli.WriteOutput(path, os.Stderr, func(w io.Writer) error {
			_, err := buf.WriteTo(w)
			return err
		})
		if err != nil && runErr == nil {
			runErr = err
		}
		slog.Debug(what+" written", "path", path)
	}
	flush(*metricsOut, "metrics", &metricsBuf)
	flush(*eventsOut, "event log", &eventsBuf)
	if runErr != nil {
		cli.Fatal(runErr)
	}
}
