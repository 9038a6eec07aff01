// Command dpmsim runs the disk power simulator on a textual I/O
// trace under a chosen power management policy and reports energy,
// execution time, and per-disk statistics.
//
// Usage:
//
//	dpmc -bench swim -mode base > swim.trace
//	dpmsim -trace swim.trace -policy drpm
//	dpmsim -trace swim.trace -policy embedded   # honor trace power ops
//	dpmsim -trace swim.trace -policy all        # compare every policy
//
// Observability:
//
//	-metrics-out FILE   write Prometheus text-format metrics (request
//	                    latency histograms, per-disk RPM/state
//	                    residency, power ops, spin-up mispredictions)
//	                    after the run; "-" writes them to stdout and
//	                    moves the human-readable report to stderr so
//	                    stdout stays pure Prometheus exposition
//	-trace-out FILE     write a Chrome trace-event / Perfetto JSON
//	                    timeline of the run (open in ui.perfetto.dev
//	                    or chrome://tracing); single-policy runs only.
//	                    With -events-out, decision and fault events
//	                    are merged in as annotated instants
//	-events-out FILE    write the decision-provenance event log as
//	                    JSON Lines after the run: every spin-down/
//	                    spin-up/RPM-shift with its trigger, inputs,
//	                    measured idle, and energy regret, plus fault
//	                    lifecycle and batching bail-outs; query the
//	                    file with dpmquery. "-" writes to stdout and
//	                    moves the report to stderr
//	-http ADDR          serve live introspection for the run's
//	                    duration: /metrics (Prometheus), /status
//	                    (JSON snapshot), /debug/pprof/
//	-audit              verify conservation invariants (energy/time
//	                    bookkeeping, state-machine legality) after the
//	                    run; fail loudly on any violation
//	-timeout D          overall wall-clock budget (e.g. 90s); expiry
//	                    cancels in-flight comparison runs like SIGINT
//	                    does, with partial metrics still flushed
//	-v / -q             debug-level / warnings-only structured logs
//
// File outputs (-metrics-out, -trace-out) are written atomically:
// a temp file is fsynced and renamed over the destination.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"

	"sdpm/internal/cli"
	"sdpm/internal/core"
	"sdpm/internal/disk"
	"sdpm/internal/faults"
	"sdpm/internal/obs"
	"sdpm/internal/obs/events"
	"sdpm/internal/runner"
	"sdpm/internal/sim"
	"sdpm/internal/trace"
)

// allPolicies is the canonical order of the comparison mode.
var allPolicies = []string{"base", "tpm", "itpm", "drpm", "idrpm"}

func main() {
	traceFile := flag.String("trace", "", "trace file (textual format; - for stdin)")
	pol := flag.String("policy", "base", "policy: base, tpm, itpm, drpm, idrpm, embedded (execute the trace's power ops), or all (compare every policy)")
	perDisk := flag.Bool("perdisk", false, "print per-disk statistics")
	openLoop := flag.Bool("openloop", false, "open-loop replay (arrival-driven, per-disk FIFO) instead of closed-loop execution")
	distSeek := flag.Bool("distseek", false, "distance-dependent seek times instead of the datasheet average")
	timeline := flag.Int("timeline", 0, "print up to N timeline segments per disk")
	workers := flag.Int("workers", 0, "worker goroutines for -policy all (0 = GOMAXPROCS, 1 = sequential); output is identical for every value")
	metricsOut := flag.String("metrics-out", "", "write Prometheus text-format metrics to this file after the run (- for stdout; the report then moves to stderr)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event / Perfetto JSON timeline to this file (single-policy runs; decision/fault events are merged in when -events-out is also set)")
	eventsOut := flag.String("events-out", "", "write the decision-provenance event log as JSON Lines to this file after the run (- for stdout; the report then moves to stderr); query with dpmquery")
	eventsCap := flag.Int("events-cap", 0, "event ring capacity for -events-out (0 = default; oldest events drop past the cap)")
	httpAddr := flag.String("http", "", "serve live /metrics, /status, and /debug/pprof on this address (e.g. :6060) for the run's duration")
	faultSpec := flag.String("faults", "", "fault-injection spec: preset (off/light/moderate/heavy), key=value list, or @file (read here; dpmd rejects @file); empty = fault-free")
	faultSeed := flag.Int64("fault-seed", 1, "fault schedule seed; the same seed reproduces the exact fault pattern")
	audit := flag.Bool("audit", false, "verify conservation invariants (energy/time bookkeeping, state-machine legality) after the run; fail on any violation")
	batch := flag.Bool("batch", true, "batched steady-state executor over the trace's compiled runs; -batch=false forces the general per-request path (results are bit-identical)")
	timeout := flag.Duration("timeout", 0, "overall wall-clock budget for the run (e.g. 90s); on expiry in-flight comparison runs cancel cleanly and partial metrics/events are still flushed before the non-zero exit (0 = no limit)")
	verbose, quiet := cli.LogFlags(flag.CommandLine)
	flag.Parse()
	cli.SetupLogging("dpmsim", *verbose, *quiet)

	if *traceFile == "" {
		cli.Fatal(fmt.Errorf("-trace is required"))
	}
	var src *os.File
	if *traceFile == "-" {
		src = os.Stdin
	} else {
		f, err := os.Open(*traceFile)
		if err != nil {
			cli.Fatal(err)
		}
		defer f.Close()
		src = f
	}
	tr, err := trace.Decode(src)
	if err != nil {
		cli.Fatal(err)
	}
	slog.Debug("trace loaded", "program", tr.Program, "events", len(tr.Events), "disks", tr.NumDisks)

	var coll *obs.Collector
	if *metricsOut != "" || *httpAddr != "" {
		coll = obs.New()
	}
	var evLog *events.Log
	if *eventsOut != "" {
		evLog = events.NewLog(*eventsCap)
	}
	// With metrics or events on stdout, the human-readable report
	// moves to stderr so stdout remains pure machine output.
	report := io.Writer(os.Stdout)
	if *metricsOut == "-" || *eventsOut == "-" {
		report = os.Stderr
	}

	p := disk.DefaultParams()
	baseCfg := sim.Config{
		Disk:                p,
		PowerCallOverheadMS: sim.DefaultPowerCallOverheadMS,
		DistanceAwareSeek:   *distSeek,
		RecordTimeline:      *timeline > 0 || *traceOut != "",
		Audit:               *audit,
		Obs:                 coll,
		Events:              evLog,
		DisableBatch:        !*batch,
	}
	if *httpAddr != "" {
		prog, pol := tr.Program, *pol
		_, shutdown, err := cli.StartDebugServer(*httpAddr, coll, func() any {
			return map[string]any{"tool": "dpmsim", "program": prog, "policy": pol}
		})
		if err != nil {
			cli.Fatal(err)
		}
		defer shutdown()
	}
	if *faultSpec != "" {
		spec, err := cli.ExpandSpecFile(*faultSpec)
		if err != nil {
			cli.Fatal(err)
		}
		fc, err := faults.ParseSpec(spec)
		if err != nil {
			cli.Fatal(err)
		}
		if fc.Enabled() {
			plan, err := faults.New(*faultSeed, tr.NumDisks, fc)
			if err != nil {
				cli.Fatal(err)
			}
			baseCfg.Faults = plan
			slog.Debug("faults armed", "spec", faults.FormatSpec(fc), "seed", *faultSeed)
		}
	}

	// SIGINT/SIGTERM — and the -timeout budget, when set — cancel
	// in-flight comparison runs; metrics accumulated so far are still
	// flushed before the non-zero exit.
	ctx, stop := cli.RootContext(*timeout)
	defer stop()

	if strings.EqualFold(*pol, "all") {
		if *traceOut != "" {
			slog.Warn("-trace-out applies to single-policy runs; ignoring it with -policy all")
		}
		if err := runAll(ctx, report, tr, baseCfg, *openLoop, *workers, coll); err != nil {
			writeMetrics(*metricsOut, coll)
			writeEvents(*eventsOut, evLog)
			cli.Fatal(err)
		}
		writeMetrics(*metricsOut, coll)
		writeEvents(*eventsOut, evLog)
		return
	}

	cfg := baseCfg
	cfg.Policy, cfg.IgnorePowerOps, err = policyFor(*pol, p, tr.NumDisks)
	if err != nil {
		cli.Fatal(err)
	}
	res, err := runOnce(tr, cfg, *openLoop)
	if err != nil {
		writeMetrics(*metricsOut, coll)
		writeEvents(*eventsOut, evLog)
		cli.Fatal(err)
	}
	slog.Debug("run complete", "policy", *pol, "energy_j", res.EnergyJ, "exec_ms", res.ExecMS)
	fmt.Fprintf(report, "program      %s\n", tr.Program)
	fmt.Fprintf(report, "policy       %s\n", *pol)
	fmt.Fprintf(report, "scheme       %s\n", res.Scheme)
	fmt.Fprintf(report, "disks        %d\n", tr.NumDisks)
	fmt.Fprintf(report, "requests     %d\n", res.Requests)
	fmt.Fprintf(report, "power ops    %d\n", res.PowerOps)
	fmt.Fprintf(report, "energy       %.2f J\n", res.EnergyJ)
	fmt.Fprintf(report, "exec time    %.2f ms\n", res.ExecMS)
	fmt.Fprintf(report, "wait time    %.2f ms\n", res.TotalWaitMS)
	fmt.Fprintf(report, "avg power    %.2f W\n", res.EnergyJ/res.ExecMS*1e3)
	if baseCfg.Faults != nil {
		var fails, retries, timeouts, fallbacks, remaps, degraded int
		var extraMS float64
		for _, st := range res.Disks {
			fails += st.SpinUpFailures
			retries += st.SpinUpRetries
			timeouts += st.SpinUpTimeouts
			fallbacks += st.Fallbacks
			remaps += st.RemapHits
			degraded += st.DegradedHits
			extraMS += st.DegradedExtraMS
		}
		fmt.Fprintf(report, "faults       %d spin-up failures, %d retries, %d timeouts, %d fallbacks\n",
			fails, retries, timeouts, fallbacks)
		fmt.Fprintf(report, "             %d remap hits, %d degraded services (+%.2f ms transfer)\n",
			remaps, degraded, extraMS)
	}
	if *timeline > 0 {
		for d, segs := range res.Timelines {
			fmt.Fprintf(report, "disk%d timeline (%d segments):\n", d, len(segs))
			for i, sg := range segs {
				if i >= *timeline {
					fmt.Fprintf(report, "  ... %d more\n", len(segs)-i)
					break
				}
				mode := sg.Stat.String()
				if sg.Active {
					mode = "service"
				}
				fmt.Fprintf(report, "  %10.2f..%10.2f ms  %-8s %5d RPM  %6.2f W\n",
					sg.StartMS, sg.EndMS, mode, sg.RPM, sg.PowerW)
			}
		}
	}
	if *perDisk {
		fmt.Fprintf(report, "%-5s %10s %10s %10s %10s %10s %6s %5s %5s %6s\n",
			"disk", "energy(J)", "active(ms)", "idle(ms)", "stby(ms)", "trans(ms)", "reqs", "down", "up", "shift")
		for d, st := range res.Disks {
			fmt.Fprintf(report, "%-5d %10.2f %10.1f %10.1f %10.1f %10.1f %6d %5d %5d %6d\n",
				d, st.EnergyJ, st.ActiveMS, st.IdleMS, st.StandbyMS, st.TransitionMS,
				st.Requests, st.SpinDowns, st.SpinUps, st.RPMShifts)
		}
	}
	if *traceOut != "" {
		writeTraceFile(*traceOut, res, evLog)
	}
	writeMetrics(*metricsOut, coll)
	writeEvents(*eventsOut, evLog)
}

// writeMetrics dumps the collector in Prometheus text format to the
// named file ("-" for stdout); empty name is a no-op. File writes go
// through a temp-file + rename so a crash never truncates the dump.
func writeMetrics(path string, coll *obs.Collector) {
	if path == "" || coll == nil {
		return
	}
	var err error
	if path == "-" {
		err = obs.WritePrometheus(os.Stdout, coll)
	} else {
		err = cli.WriteFileAtomic(path, func(w io.Writer) error {
			return obs.WritePrometheus(w, coll)
		})
	}
	if err != nil {
		cli.Fatal(err)
	}
	slog.Debug("metrics written", "path", path)
}

// writeEvents dumps the decision-provenance event log as JSON Lines
// to the named file ("-" for stdout); empty name or nil log is a
// no-op. File writes are atomic (temp file + fsync + rename).
func writeEvents(path string, log *events.Log) {
	if path == "" || log == nil {
		return
	}
	evs := log.Events()
	if n := log.Dropped(); n > 0 {
		slog.Warn("event ring overflowed; oldest events dropped", "dropped", n, "kept", len(evs))
	}
	var err error
	if path == "-" {
		err = events.WriteJSONL(os.Stdout, evs)
	} else {
		err = cli.WriteFileAtomic(path, func(w io.Writer) error {
			return events.WriteJSONL(w, evs)
		})
	}
	if err != nil {
		cli.Fatal(err)
	}
	slog.Debug("event log written", "path", path, "events", len(evs))
}

// writeTraceFile dumps the run's recorded timelines as Chrome
// trace-event JSON ("-" for stdout); file writes are atomic. When an
// event log was collected, its decision and fault events are merged
// in as annotated instants on the disk tracks.
func writeTraceFile(path string, res *sim.Result, log *events.Log) {
	write := func(w io.Writer) error {
		if log != nil {
			return sim.WriteChromeTraceAnnotated(w, res, log.Events())
		}
		return sim.WriteChromeTrace(w, res)
	}
	var err error
	if path == "-" {
		err = write(os.Stdout)
	} else {
		err = cli.WriteFileAtomic(path, write)
	}
	if err != nil {
		cli.Fatal(err)
	}
	slog.Debug("trace timeline written", "path", path)
}

// policyFor builds the named policy (a reactive or oracle scheme,
// matched case-insensitively); the second result says whether the
// trace's embedded power ops must be dropped (true for every reactive
// policy, false for "embedded").
func policyFor(name string, p disk.Params, numDisks int) (sim.Policy, bool, error) {
	if strings.EqualFold(name, "embedded") {
		// No policy: the trace's explicit power ops drive the disks.
		return nil, false, nil
	}
	if s, ok := core.ParseScheme(name); ok {
		if pol, ok := s.Policy(p, numDisks); ok {
			return pol, true, nil
		}
	}
	return nil, false, fmt.Errorf("unknown policy %q", name)
}

// runOnce executes one simulation in the selected loop mode.
func runOnce(tr *trace.Trace, cfg sim.Config, openLoop bool) (*sim.Result, error) {
	if openLoop {
		if cfg.Policy == nil {
			return nil, fmt.Errorf("open-loop replay cannot execute embedded power ops; pick a policy")
		}
		return sim.RunOpenLoop(tr, cfg)
	}
	return sim.Run(tr, cfg)
}

// runAll simulates the trace under every reactive policy — one worker
// per policy, each with its own policy state — and prints a
// comparison table in canonical order (identical for any worker
// count). All runs report into the shared collector when metrics are
// requested.
func runAll(ctx context.Context, report io.Writer, tr *trace.Trace, baseCfg sim.Config, openLoop bool, workers int, coll *obs.Collector) error {
	results := make([]*sim.Result, len(allPolicies))
	err := runner.New(workers).Observe(coll).WithContext(ctx).Map(len(allPolicies), func(i int) error {
		cfg := baseCfg
		cfg.RecordTimeline = false
		var err error
		cfg.Policy, cfg.IgnorePowerOps, err = policyFor(allPolicies[i], baseCfg.Disk, tr.NumDisks)
		if err != nil {
			return err
		}
		results[i], err = runOnce(tr, cfg, openLoop)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(report, "program      %s\n", tr.Program)
	fmt.Fprintf(report, "disks        %d\n", tr.NumDisks)
	fmt.Fprintf(report, "%-8s %12s %12s %12s %10s\n", "policy", "energy(J)", "exec(ms)", "wait(ms)", "power(W)")
	for i, name := range allPolicies {
		r := results[i]
		fmt.Fprintf(report, "%-8s %12.2f %12.2f %12.2f %10.2f\n",
			name, r.EnergyJ, r.ExecMS, r.TotalWaitMS, r.EnergyJ/r.ExecMS*1e3)
	}
	return nil
}
