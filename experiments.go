package sdpm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"

	"sdpm/internal/experiments"
	"sdpm/internal/journal"
	"sdpm/internal/obs"
	"sdpm/internal/obs/events"
)

// ExperimentIDs returns the identifiers accepted by RunExperiment, in
// the paper's order.
func ExperimentIDs() []string { return experiments.IDs() }

// Options configures RunExperiments.
type Options struct {
	// Format selects the rendering: "text" (aligned tables, the
	// default when empty) or "csv".
	Format string
	// Workers bounds each experiment's parallelism: 1 is strictly
	// sequential, 0 (the default) selects GOMAXPROCS. Output is
	// byte-identical for every value.
	Workers int
	// Metrics, when non-nil, receives a Prometheus text-format dump
	// of the engine's observability metrics (simulation counters and
	// latency histograms, per-disk residency, instance-cache
	// hit/miss/singleflight counts, worker-pool utilization, injected
	// faults) after the experiments complete — or after cancellation,
	// when partial metrics are still flushed.
	Metrics io.Writer
	// Collector, when non-nil, is the metrics collector the suite
	// reports into — pass one to scrape metrics live (e.g. through
	// cli.StartDebugServer) while the experiments run. When nil and
	// Metrics is set, a private collector is created; Metrics dumps
	// whichever collector was used after the run.
	Collector *obs.Collector
	// Events, when non-nil, receives the suite's decision-provenance
	// event log as JSON Lines after the experiments complete (or after
	// cancellation — partial logs are still flushed): every power
	// decision with its trigger, inputs, measured idle, and energy
	// regret, plus batching bail-outs, fault lifecycle, worker-pool
	// retries/panics, and journal hits/misses. Query the file with
	// dpmquery. Event collection never changes results (simulation
	// output is bit-identical with and without it).
	Events io.Writer
	// EventCapacity bounds the in-memory event ring when Events is
	// set; 0 selects events.DefaultCapacity. When the run emits more
	// events than the ring holds, the oldest are dropped (the JSONL
	// output then starts at the earliest retained event) and a
	// warning with the dropped and kept counts goes to the default
	// slog logger.
	EventCapacity int
	// Ctx, when non-nil, cancels in-flight experiments: worker pools
	// stop claiming cells, the current experiment returns the
	// context's error, and metrics accumulated so far are still
	// written to Metrics.
	Ctx context.Context
	// FaultSpec injects deterministic faults into every experiment's
	// simulations: a preset name (off/light/moderate/heavy) or a
	// key=value spec (see faults.ParseSpec). It is spec text only:
	// "@file" is expanded by the dpmexp -faults flag, and dpmd rejects
	// it. Empty keeps the paper's fault-free setting. The
	// faults-energy/faults-time experiments sweep all severities
	// regardless of this base.
	FaultSpec string
	// FaultSeed seeds the fault-sensitivity experiments' fault plans;
	// the same seed yields byte-identical tables at any worker count.
	FaultSeed int64
	// Journal, when non-empty, records every completed experiment cell
	// to this append-only file (fsynced per record, CRC-protected).
	// With Resume false the file is truncated and written fresh; on
	// success it is compacted and atomically finalized, while on
	// failure or cancellation the journal is left behind so a later
	// Resume run can pick up where this one stopped.
	Journal string
	// Resume reopens an existing journal instead of truncating it:
	// cells whose key already holds a valid record are skipped, torn
	// trailing records from a crash are discarded, and only the
	// missing cells are recomputed. Output is byte-identical to an
	// uninterrupted run.
	Resume bool
	// Audit verifies conservation invariants (energy bookkeeping,
	// time accounting, disk state-machine legality) after every
	// simulation and fails loudly on any violation. Results are
	// unchanged; auditing only adds checking.
	Audit bool
	// Retries re-runs a failing or panicking experiment cell up to
	// this many extra times before reporting its error. 0 disables
	// retries; panics still surface as typed errors either way.
	Retries int
}

// RunExperiment regenerates one of the paper's tables or figures (or
// one of the ablation studies) and renders it to out as plain text.
// The id "all" runs every experiment in order.
func RunExperiment(id string, out io.Writer) error {
	return RunExperiments(id, out, Options{})
}

// RunExperimentFormat is RunExperiment with an output format: "text"
// (aligned tables) or "csv".
func RunExperimentFormat(id string, out io.Writer, format string) error {
	return RunExperiments(id, out, Options{Format: format})
}

// RunExperiments regenerates the experiment id (or every experiment,
// for "all") with the given options. A single suite — and hence a
// single instance memo — serves the whole call, so "all" prepares
// each (workload, configuration) pair exactly once across all twenty
// experiments.
func RunExperiments(id string, out io.Writer, opts Options) error {
	format := opts.Format
	if format == "" {
		format = "text"
	}
	if format != "text" && format != "csv" {
		return fmt.Errorf("sdpm: unknown format %q (text or csv)", format)
	}
	s := experiments.NewSuite()
	s.Workers = opts.Workers
	s.Ctx = opts.Ctx
	if err := s.Cfg.SetFaults(opts.FaultSpec, opts.FaultSeed); err != nil {
		return err
	}
	s.FaultSeed = opts.FaultSeed
	s.Cfg.Audit = opts.Audit
	s.Retries = opts.Retries
	if opts.Collector != nil {
		s.Obs = opts.Collector
	} else if opts.Metrics != nil {
		s.Obs = obs.New()
	}
	if opts.Events != nil {
		s.Events = events.NewLog(opts.EventCapacity)
	}
	// j stays concrete: the suite only needs the CellJournal surface,
	// but finalizing/closing below needs the full journal handle.
	var j *journal.Journal
	if opts.Journal != "" {
		var jerr error
		if opts.Resume {
			j, jerr = journal.Open(opts.Journal)
		} else {
			j, jerr = journal.Create(opts.Journal)
		}
		if jerr != nil {
			return jerr
		}
		if records, torn := j.Recovered(); records > 0 || torn > 0 {
			slog.Info("journal recovered", "path", opts.Journal, "records", records, "truncated_bytes", torn)
		}
		s.Journal = j
	}
	// Run, then flush metrics regardless of failure or cancellation:
	// a partial Prometheus dump still tells the operator what happened
	// before the interrupt.
	err := runSelected(s, id, out, format, opts.Ctx)
	if merr := writeMetrics(opts.Metrics, s.Obs); err == nil {
		err = merr
	}
	if s.Events != nil {
		evs := s.Events.Events()
		if n := s.Events.Dropped(); n > 0 {
			slog.Warn("event ring overflowed; oldest events dropped", "dropped", n, "kept", len(evs))
		}
		if eerr := events.WriteJSONL(opts.Events, evs); err == nil {
			err = eerr
		}
	}
	// Finalize (compact + atomic rename) the journal only on full
	// success; on failure or cancellation just close it, keeping every
	// fsynced record for a -resume run.
	if j != nil {
		if err == nil {
			err = j.Finalize()
		} else if cerr := j.Close(); cerr != nil {
			slog.Warn("journal close failed", "path", opts.Journal, "err", cerr)
		}
	}
	var ioe *journal.IOError
	if errors.As(err, &ioe) {
		err = fmt.Errorf("%w (every fsynced cell is preserved; re-run with -resume to recover them)", err)
	}
	return err
}

// runSelected runs one experiment id, or every experiment for "all",
// stopping between experiments once ctx is canceled. The dispatch
// itself lives in experiments.Render so the serving layer (cmd/dpmd)
// shares one rendering path with the library.
func runSelected(s *experiments.Suite, id string, out io.Writer, format string, ctx context.Context) error {
	if id != "all" {
		return experiments.Render(s, id, out, format)
	}
	for _, e := range ExperimentIDs() {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		if err := experiments.Render(s, e, out, format); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

// writeMetrics dumps the suite collector in Prometheus text format.
func writeMetrics(w io.Writer, c *obs.Collector) error {
	if w == nil || c == nil {
		return nil
	}
	return obs.WritePrometheus(w, c)
}
