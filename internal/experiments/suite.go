// Package experiments regenerates every table and figure of the
// paper's evaluation (Sections 4-6): Table 1 (parameters), Table 2
// (benchmark characteristics), Figures 3/4 (normalized energy and
// execution time under the seven schemes), Table 3 (CMDRPM speed
// mispredictions), Figures 5-8 (stripe size and stripe factor
// sensitivity on swim), and Figure 13 (the code-transformation
// versions), plus the ablation studies DESIGN.md calls out.
//
// Every experiment is an embarrassingly parallel grid of independent
// (benchmark, configuration, scheme) cells, run through one journaled
// Suite.grid, and one registry maps each experiment id to its builder.
// The grid fans the cells out on a bounded worker pool
// (internal/runner) and reassembles results in canonical order, so
// rendered output is byte-identical for any worker count; a shared
// instance memo (core.Cache) ensures the compile→analysis→trace
// pipeline runs once per (workload, configuration) no matter how many
// schemes or experiments ask for it. A suite with no collector and no
// event log also simulates each distinct closed-loop run once: a run
// memo that lives as long as the suite answers the runs experiments
// repeat (Figures 3/4, 5/6 and 7/8 and the fault tables report one
// set of runs each). See docs/performance.md.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"sdpm/internal/core"
	"sdpm/internal/journal"
	"sdpm/internal/obs"
	"sdpm/internal/obs/events"
	"sdpm/internal/runner"
	"sdpm/internal/sim"
	"sdpm/internal/stats"
	"sdpm/internal/workloads"
)

// CellJournal is the durability surface the suite needs from a result
// journal: lookup of a completed cell and a durable (fsynced-before-
// return) append. *journal.Journal satisfies it directly; a serving
// layer can wrap one to add retries or degraded-mode fallback without
// the suite knowing.
type CellJournal interface {
	Lookup(key string) ([]float64, bool)
	Append(key string, vals []float64) error
}

// *journal.Journal is the canonical CellJournal.
var _ CellJournal = (*journal.Journal)(nil)

// CacheUnitsAuto is the suite's "unset" sentinel for
// Config.CacheUnits: each benchmark then uses its own calibrated
// buffer-cache capacity. Any positive value applies uniformly to all
// benchmarks (even when it equals the core default).
const CacheUnitsAuto = 0

// Suite runs the paper's experiments over the Table 2 benchmarks.
type Suite struct {
	// Cfg is the base configuration (Table 1 defaults). A CacheUnits
	// of CacheUnitsAuto selects each benchmark's own capacity.
	Cfg core.Config
	// Benchmarks are the workloads (Table 2 order).
	Benchmarks []*workloads.Benchmark
	// Workers bounds each experiment's parallelism: 1 is strictly
	// sequential, 0 selects GOMAXPROCS. Results are byte-identical
	// for every value.
	Workers int
	// Obs, when non-nil, observes the whole suite: every simulation
	// run but ExtensionMultiprogram's merged open-loop replays and
	// AblationClustering's LF+DL runs, and every instance-cache lookup
	// and worker-pool cell, reports into it. Set it before the first
	// experiment; render with obs.WritePrometheus. A suite with
	// neither Obs nor Events answers a closed-loop run it already
	// simulated from its run memo instead of simulating it again.
	Obs *obs.Collector
	// Events, when non-nil, collects decision-provenance events for
	// the whole suite: the power decisions (with energy-regret
	// attribution) of every simulation run but the ones Obs names,
	// cell retries and recovered panics from the worker pool, and
	// journal hit/miss lifecycle events. Render with events.WriteJSONL
	// or query with dpmquery.
	Events *events.Log
	// Ctx, when non-nil, cancels in-flight experiments: worker pools
	// stop claiming cells and the running experiment returns the
	// context's error. Results produced before cancellation remain
	// valid (partial metrics can still be flushed).
	Ctx context.Context
	// FaultSeed seeds the fault-sensitivity experiments (FaultImpact);
	// the base configuration's own fault knobs live in Cfg.Faults.
	FaultSeed int64
	// Journal, when non-nil, makes the suite crash-safe: every
	// completed cell is appended durably (fsynced) before its result
	// is used, and cells whose key already has a valid record are
	// served from the journal without recomputation. Cell keys cover
	// the experiment, benchmark, scheme, and the full configuration
	// fingerprint (including fault spec and seed), so a journal can
	// never leak results across configurations. Journaled values
	// round-trip float64s bit-exactly, keeping resumed output
	// byte-identical to a cold run at any worker count. Assign a
	// *journal.Journal directly, or any CellJournal wrapper; leave nil
	// (not a typed nil inside the interface) to disable journaling.
	Journal CellJournal
	// Retries re-runs a failing or panicking cell up to this many
	// extra times before the experiment reports its error (see
	// runner.Pool.WithRetry). Simulation cells are deterministic, so
	// this only helps transient failures (e.g. memory pressure).
	Retries int
	// Cache, when non-nil, replaces the suite's private instance memo
	// with a shared one, so preparations survive the suite itself. A
	// long-lived service creates one Cache and threads it through every
	// per-request Suite: repeated requests for the same (workload,
	// configuration) then skip the compile→analysis→trace pipeline
	// entirely. The shared cache keys on program identity, so callers
	// must also share Benchmarks (the same *workloads.Benchmark values)
	// across suites. Set it before the first experiment; its Obs/Events
	// attachments win over the suite's.
	Cache *core.Cache

	cacheOnce sync.Once
	cache     *core.Cache
	runs      runMemo
}

// NewSuite returns a suite with the paper's default configuration and
// all six benchmarks.
func NewSuite() *Suite { return NewSuiteOf(workloads.All()) }

// NewSuiteOf returns a suite with the paper's default configuration
// over the given benchmarks, which it shares rather than copies.
func NewSuiteOf(benches []*workloads.Benchmark) *Suite {
	cfg := core.DefaultConfig()
	cfg.CacheUnits = CacheUnitsAuto
	return &Suite{Cfg: cfg, Benchmarks: benches}
}

// memo returns the suite's instance cache: the injected shared Cache
// when one is set, otherwise a private one (created lazily so
// zero-constructed suites work too).
func (s *Suite) memo() *core.Cache {
	s.cacheOnce.Do(func() {
		if s.Cache != nil {
			s.cache = s.Cache
			return
		}
		s.cache = core.NewCache()
		s.cache.Obs = s.Obs
		s.cache.Events = s.Events
	})
	return s.cache
}

// pool returns a worker pool honoring s.Workers, s.Ctx, and
// s.Retries. Experiments run one at a time, so a fresh pool per
// experiment keeps the global bound.
func (s *Suite) pool() *runner.Pool {
	return runner.New(s.Workers).Observe(s.Obs).Trace(s.Events).WithContext(s.Ctx).WithRetry(s.Retries)
}

// cellKey canonically identifies one experiment cell: the experiment
// name, its distinguishing parts (benchmark, scheme, sweep point...),
// and the full configuration fingerprint. Two cells share a key only
// when they are guaranteed to produce identical values.
func (s *Suite) cellKey(exp string, cfg *core.Config, parts ...string) string {
	key := exp
	if len(parts) > 0 {
		key += "|" + strings.Join(parts, "|")
	}
	return key + "|" + cfg.Fingerprint()
}

// cell runs one journaled experiment cell: a valid journal record for
// the key short-circuits the computation (that is what makes -resume
// skip completed work), otherwise compute runs and its values are
// appended durably before they are used. n is the cell's value count;
// a journal record of any other length is treated as a miss. With no
// journal attached, cell is just compute().
func (s *Suite) cell(key string, n int, compute func() ([]float64, error)) ([]float64, error) {
	if s.Journal != nil {
		if vals, ok := s.Journal.Lookup(key); ok && len(vals) == n {
			s.Obs.Add(obs.JournalHits, 1)
			s.Events.Emit(events.Event{Kind: events.KindJournalHit, Disk: -1, Detail: key})
			return vals, nil
		}
	}
	vals, err := compute()
	if err != nil {
		return nil, err
	}
	if len(vals) != n {
		return nil, fmt.Errorf("experiments: cell %q computed %d values, expected %d", key, len(vals), n)
	}
	if s.Journal != nil {
		s.Obs.Add(obs.JournalMisses, 1)
		s.Events.Emit(events.Event{Kind: events.KindJournalMiss, Disk: -1, Detail: key})
		if err := s.Journal.Append(key, vals); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// grid runs an experiment's n cells on the worker pool, each through
// the journal, and returns their values in cell order. at describes
// cell i: the configuration and parts of its key, and the computation
// of its width values.
func (s *Suite) grid(exp string, n, width int, at func(i int) (core.Config, []string, func() ([]float64, error))) ([][]float64, error) {
	out := make([][]float64, n)
	err := s.pool().Map(n, func(i int) error {
		cfg, parts, compute := at(i)
		vals, err := s.cell(s.cellKey(exp, &cfg, parts...), width, compute)
		out[i] = vals
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// perBench runs one cell per benchmark, under the benchmark's own
// configuration and keyed by its name, and returns the cells in
// benchmark order.
func (s *Suite) perBench(exp string, benches []*workloads.Benchmark, width int, compute func(*workloads.Benchmark, core.Config) ([]float64, error)) ([][]float64, error) {
	return s.grid(exp, len(benches), width, func(i int) (core.Config, []string, func() ([]float64, error)) {
		b := benches[i]
		cfg := s.configFor(b)
		return cfg, []string{b.Name}, func() ([]float64, error) { return compute(b, cfg) }
	})
}

// benchTable fills t with perBench's cells, one row per benchmark.
func (s *Suite) benchTable(t *stats.Table, exp string, benches []*workloads.Benchmark, width int, compute func(*workloads.Benchmark, core.Config) ([]float64, error)) (*stats.Table, error) {
	rows, err := s.perBench(exp, benches, width, compute)
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		t.Add(b.Name, rows[i]...)
	}
	return t, nil
}

// withMean appends the cross-benchmark "average" row to a built table.
func withMean(t *stats.Table, err error) (*stats.Table, error) {
	if err != nil {
		return nil, err
	}
	return t.WithMeanRow(), nil
}

// schemeGrid runs every scheme on every row: one cell per (row,
// scheme) pair, keyed by the row's parts and the scheme and valued
// [EnergyJ, ExecMS], each on the instance prepare builds for the row.
// row returns row i's benchmark, configuration and key parts. The
// energy and execution-time tables it returns are titled titles and
// divide every value by a Base run (schemes[0] must be Base): the
// row's own, or with fixedRef row 0's.
func (s *Suite) schemeGrid(exp string, labels []string, schemes []core.Scheme, titles [2]string, fixedRef bool,
	prepare func(*workloads.Benchmark, core.Config) (*core.Instance, error),
	row func(i int) (*workloads.Benchmark, core.Config, []string)) (*stats.Table, *stats.Table, error) {
	ns := len(schemes)
	cells, err := s.grid(exp, len(labels)*ns, 2, func(i int) (core.Config, []string, func() ([]float64, error)) {
		b, cfg, parts := row(i / ns)
		parts = append(parts, string(schemes[i%ns]))
		return cfg, parts, func() ([]float64, error) {
			in, err := prepare(b, cfg)
			if err != nil {
				return nil, err
			}
			res, err := s.simulate(in, schemes[i%ns])
			if err != nil {
				return nil, fmt.Errorf("%s: %w", strings.Join(parts, "/"), err)
			}
			return []float64{res.EnergyJ, res.ExecMS}, nil
		}
	})
	if err != nil {
		return nil, nil, err
	}
	cols := make([]string, ns)
	for i, sc := range schemes {
		cols[i] = string(sc)
	}
	energy := &stats.Table{Title: titles[0], Columns: cols, Precision: 3}
	times := &stats.Table{Title: titles[1], Columns: cols, Precision: 3}
	for r, label := range labels {
		ref := cells[r*ns]
		if fixedRef {
			ref = cells[0]
		}
		evals, tvals := make([]float64, ns), make([]float64, ns)
		for c, v := range cells[r*ns : (r+1)*ns] {
			evals[c], tvals[c] = v[0]/ref[0], v[1]/ref[1]
		}
		energy.Add(label, evals...)
		times.Add(label, tvals...)
	}
	return energy, times, nil
}

// configFor specializes the suite configuration for one benchmark.
func (s *Suite) configFor(b *workloads.Benchmark) core.Config {
	cfg := s.Cfg
	cfg.Model = b.Model()
	if cfg.CacheUnits == CacheUnitsAuto {
		cfg.CacheUnits = b.CacheUnits
	}
	return cfg
}

// prepare prepares one benchmark under cfg, sharing the preparation
// across schemes, experiments, and workers.
func (s *Suite) prepare(b *workloads.Benchmark, cfg core.Config) (*core.Instance, error) {
	return s.memo().Prepare(b.Name, b.Program, cfg, nil)
}

// run prepares b under cfg and runs the schemes on it in order.
func (s *Suite) run(b *workloads.Benchmark, cfg core.Config, schemes ...core.Scheme) (*core.Instance, []*sim.Result, error) {
	in, err := s.prepare(b, cfg)
	if err != nil {
		return nil, nil, err
	}
	res := make([]*sim.Result, len(schemes))
	for i, sc := range schemes {
		if res[i], err = s.simulate(in, sc); err != nil {
			return nil, nil, err
		}
	}
	return in, res, nil
}

// bench returns the suite's benchmark of that name. Experiments never
// build their own: the memo keys on program identity, so a fresh
// program would prepare again, and pin another entry in a shared
// Cache, on every call.
func (s *Suite) bench(name string) (*workloads.Benchmark, error) {
	for _, b := range s.Benchmarks {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("experiments: the suite has no benchmark %q", name)
}

// Table1 renders the simulation parameters (the paper's Table 1).
func (s *Suite) Table1() string {
	p := s.Cfg.Disk
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Default simulation parameters\n")
	fmt.Fprintf(&b, "  Disk model                 %s\n", p.Model)
	fmt.Fprintf(&b, "  Interface                  %s\n", p.Interface)
	fmt.Fprintf(&b, "  Storage capacity           %.0f GB\n", p.CapacityGB)
	fmt.Fprintf(&b, "  RPM                        %d\n", p.MaxRPM)
	fmt.Fprintf(&b, "  Average seek time          %.1f msec\n", p.AvgSeekMS)
	fmt.Fprintf(&b, "  Average rotation time      %.1f msec\n", p.AvgRotMS)
	fmt.Fprintf(&b, "  Internal transfer rate     %.0f MB/sec\n", p.TransferMBps)
	fmt.Fprintf(&b, "  Power (active)             %.1f W\n", p.ActiveW)
	fmt.Fprintf(&b, "  Power (idle)               %.1f W\n", p.IdleW)
	fmt.Fprintf(&b, "  Power (standby)            %.1f W\n", p.StandbyW)
	fmt.Fprintf(&b, "  Energy (spin down)         %.0f J\n", p.SpinDownJ)
	fmt.Fprintf(&b, "  Time (spin down)           %.1f sec\n", p.SpinDownMS/1e3)
	fmt.Fprintf(&b, "  Energy (spin up)           %.0f J\n", p.SpinUpJ)
	fmt.Fprintf(&b, "  Time (spin up)             %.1f sec\n", p.SpinUpMS/1e3)
	fmt.Fprintf(&b, "  Maximum RPM level          %d RPM\n", p.MaxRPM)
	fmt.Fprintf(&b, "  Minimum RPM level          %d RPM\n", p.MinRPM)
	fmt.Fprintf(&b, "  RPM step-size              %d RPM\n", p.RPMStep)
	fmt.Fprintf(&b, "  RPM step time              %.1f msec (fitted; see DESIGN.md)\n", p.RPMStepTimeMS)
	fmt.Fprintf(&b, "  Window size                %d\n", p.WindowSize)
	fmt.Fprintf(&b, "  Stripe unit (stripe size)  %d KB\n", s.Cfg.UnitBytes/1024)
	fmt.Fprintf(&b, "  Stripe factor (disks)      %d\n", s.Cfg.NumDisks)
	fmt.Fprintf(&b, "  Starting iodevice          staggered per file (see DESIGN.md)\n")
	return b.String()
}

// Table2 runs the base scheme on every benchmark and reports the
// benchmark characteristics next to the paper's values.
func (s *Suite) Table2() (*stats.Table, error) {
	t := &stats.Table{
		Title: "Table 2: Benchmarks and their characteristics (measured vs paper)",
		Columns: []string{
			"DataMB", "Requests", "EnergyJ", "ExecMS",
			"paper:DataMB", "paper:Requests", "paper:EnergyJ", "paper:ExecMS",
		},
		Precision: 1,
	}
	rows, err := s.perBench("table2", s.Benchmarks, 3, func(b *workloads.Benchmark, cfg core.Config) ([]float64, error) {
		in, res, err := s.run(b, cfg, core.Base)
		if err != nil {
			return nil, err
		}
		return []float64{float64(len(in.Sites)), res[0].EnergyJ, res[0].ExecMS}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range s.Benchmarks {
		t.Add(b.Name,
			float64(b.Program.TotalBytes())/(1<<20), rows[i][0],
			rows[i][1], rows[i][2],
			b.Paper.DataMB, float64(b.Paper.Requests), b.Paper.EnergyJ, b.Paper.ExecMS)
	}
	return t, nil
}

// Figures34 computes Figures 3 and 4: the energy consumption and
// execution time of the seven schemes on every benchmark, normalized
// to Base, with the cross-benchmark averages.
func (s *Suite) Figures34() (*stats.Table, *stats.Table, error) {
	labels := make([]string, len(s.Benchmarks))
	for i, b := range s.Benchmarks {
		labels[i] = b.Name
	}
	energy, times, err := s.schemeGrid("schemematrix", labels, core.AllSchemes(),
		[2]string{"Figure 3: Normalized energy consumption", "Figure 4: Normalized execution time"}, false,
		s.prepare, func(i int) (*workloads.Benchmark, core.Config, []string) {
			b := s.Benchmarks[i]
			return b, s.configFor(b), []string{b.Name}
		})
	if err != nil {
		return nil, nil, err
	}
	return energy.WithMeanRow(), times.WithMeanRow(), nil
}

// Table3 reports the percentage of mispredicted disk speeds of
// CMDRPM versus the ideal scheme (the paper's Table 3).
func (s *Suite) Table3() (*stats.Table, error) {
	t := &stats.Table{
		Title:     "Table 3: Percentage of mispredicted disk speeds (CMDRPM vs IDRPM)",
		Columns:   []string{"mispredicted%", "paper%"},
		Precision: 2,
	}
	paper := map[string]float64{
		"wupwise": 6.78, "swim": 5.14, "mgrid": 13.02,
		"applu": 18.97, "mesa": 27.35, "galgel": 15.9,
	}
	rows, err := s.perBench("table3", s.Benchmarks, 1, func(b *workloads.Benchmark, cfg core.Config) ([]float64, error) {
		in, err := s.prepare(b, cfg)
		if err != nil {
			return nil, err
		}
		st, err := in.Mispredictions()
		if err != nil {
			return nil, err
		}
		return []float64{st.Pct}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range s.Benchmarks {
		t.Add(b.Name, rows[i][0], paper[b.Name])
	}
	return t, nil
}
