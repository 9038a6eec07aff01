// Package sdpm is a library for software-directed disk power
// management, reproducing Son, Kandemir & Choudhary, "Software-
// Directed Disk Power Management for Scientific Applications"
// (IPPS/IPDPS 2005).
//
// The library models array-intensive scientific programs as affine
// loop nests over disk-resident arrays, extracts their disk access
// patterns with a compiler-style analysis, inserts proactive power
// management calls (spin_down / spin_up / set_RPM with
// pre-activation), applies the paper's layout-aware loop fission and
// tiling transformations, and evaluates everything on a trace-driven
// multi-disk power simulator with TPM- and DRPM-capable disks.
//
// Quick start:
//
//	w, _ := sdpm.Benchmark("swim")
//	base, _ := w.Run(sdpm.Base, sdpm.DefaultConfig())
//	cm, _ := w.Run(sdpm.CMDRPM, sdpm.DefaultConfig())
//	fmt.Printf("energy %.0f -> %.0f J\n", base.EnergyJ, cm.EnergyJ)
//
// Programs can also be written in a small text DSL (see ParseProgram)
// and transformed with Transform. The experiments of the paper's
// evaluation are available through RunExperiment.
package sdpm

import (
	"fmt"
	"io"

	"sdpm/internal/core"
	"sdpm/internal/cycles"
	"sdpm/internal/dsl"
	"sdpm/internal/faults"
	"sdpm/internal/ir"
	"sdpm/internal/layout"
	"sdpm/internal/workloads"
)

// Scheme names a disk power management scheme (Section 4.2 of the
// paper).
type Scheme = core.Scheme

// The seven evaluated schemes.
const (
	// Base applies no power management.
	Base = core.Base
	// TPM is traditional threshold-based spin-down (reactive).
	TPM = core.TPM
	// ITPM is TPM with an oracle idle-period predictor.
	ITPM = core.ITPM
	// DRPM is the reactive dynamic-RPM controller.
	DRPM = core.DRPM
	// IDRPM is DRPM with an oracle idle-period predictor.
	IDRPM = core.IDRPM
	// CMTPM is the compiler-managed proactive TPM scheme.
	CMTPM = core.CMTPM
	// CMDRPM is the compiler-managed proactive DRPM scheme.
	CMDRPM = core.CMDRPM
)

// Schemes returns all schemes in the paper's order.
func Schemes() []Scheme { return core.AllSchemes() }

// Version names a code/layout transformation version (Section 6).
type Version = core.Version

// The evaluated code versions.
const (
	// Orig is the untransformed program.
	Orig = core.VOrig
	// LF is loop fission without layout awareness.
	LF = core.VLF
	// TL is conventional (layout-oblivious) loop tiling.
	TL = core.VTL
	// LFDL is layout-aware loop fission with proportional disk
	// allocation (the paper's LF+DL).
	LFDL = core.VLFDL
	// TLDL is layout-aware loop tiling with blocked layouts and
	// tile-to-disk mapping (the paper's TL+DL).
	TLDL = core.VTLDL
	// IC is loop interchange — an extension beyond the paper's two
	// transformations: it fixes transposed traversals by reordering
	// iteration instead of re-laying-out data.
	IC = core.VIC
)

// Versions returns all code versions in the paper's order.
func Versions() []Version { return core.AllVersions() }

// ExtendedVersions returns the paper's versions plus this library's
// extensions (loop interchange).
func ExtendedVersions() []Version { return core.ExtendedVersions() }

// Config selects the experimental platform parameters. The zero
// value is not valid; start from DefaultConfig.
type Config struct {
	// NumDisks is the number of disks (I/O nodes); also the default
	// stripe factor.
	NumDisks int
	// StripeUnitBytes is the default stripe unit size.
	StripeUnitBytes int64
	// CacheUnits is the buffer cache capacity in stripe units
	// (0 selects the workload's own default).
	CacheUnits int
	// NoisePct and BiasPct override the workload's execution-time
	// variation model when >= 0 (see the paper's Table 3 discussion);
	// leave at -1 to keep the workload defaults.
	NoisePct float64
	BiasPct  float64
	// DisablePreactivation drops the pre-activation calls (ablation).
	DisablePreactivation bool
	// DistanceAwareSeek replaces the average-seek model with the
	// square-root seek curve over actual head movement.
	DistanceAwareSeek bool
	// FaultSpec injects deterministic faults (spin-up failures with
	// bounded retry, bad-sector remaps, transient degradation windows)
	// into every simulation: a preset name (off/light/moderate/heavy)
	// or a key=value spec — see docs/robustness.md. It is spec text
	// only: "@file" is expanded by the dpmsim/dpmexp -faults flag, and
	// dpmd rejects it. Empty injects nothing.
	FaultSpec string
	// FaultSeed seeds the fault schedule; the same (spec, seed, disk
	// count) always produces byte-identical behavior.
	FaultSeed int64
	// DisableBatch forces the simulator's general per-request path
	// instead of the batched steady-state executor. Results are
	// bit-identical either way; the switch exists to prove it.
	DisableBatch bool
}

// DefaultConfig returns the paper's Table 1 configuration: eight
// disks, 64KB stripe units.
func DefaultConfig() Config {
	return Config{NumDisks: 8, StripeUnitBytes: 64 << 10, NoisePct: -1, BiasPct: -1}
}

// Result reports one simulated run.
type Result struct {
	// Program and Scheme identify the run.
	Program string
	Scheme  Scheme
	// EnergyJ is the total disk subsystem energy.
	EnergyJ float64
	// ExecMS is the application completion time.
	ExecMS float64
	// Requests is the number of disk requests serviced.
	Requests int
	// PowerOps is the number of explicit power-management calls
	// executed (compiler-managed schemes).
	PowerOps int
	// WaitMS is the total time requests waited for disks to become
	// ready — the source of any execution-time penalty.
	WaitMS float64
}

// Mispredict summarizes the disk-speed misprediction analysis
// (Table 3): how often the compiler-managed scheme chose a different
// RPM level than the oracle would for the actual idle period.
type Mispredict struct {
	Pct          float64
	Total, Wrong int
}

// Workload is a program ready to analyze, transform, and simulate.
type Workload struct {
	name       string
	prog       *ir.Program
	overrides  map[string]layout.Striping
	cacheUnits int
	noisePct   float64
	biasPct    float64
	seed       uint64
}

// Benchmark returns one of the paper's six Table 2 workloads:
// "wupwise", "swim", "mgrid", "applu", "mesa", or "galgel".
func Benchmark(name string) (*Workload, error) {
	b, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	return &Workload{
		name: b.Name, prog: b.Program,
		cacheUnits: b.CacheUnits,
		noisePct:   b.NoisePct, biasPct: b.BiasPct, seed: b.Seed,
	}, nil
}

// BenchmarkNames returns the built-in workload names.
func BenchmarkNames() []string { return workloads.Names() }

// ParseProgram builds a workload from DSL source (see internal/dsl
// for the format). Statement costs are compute cycles per iteration
// at a 750 MHz clock.
func ParseProgram(src string) (*Workload, error) {
	p, err := dsl.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Workload{
		name: p.Name, prog: p,
		cacheUnits: workloads.DefaultCacheUnits,
		noisePct:   10, biasPct: 15, seed: 1,
	}, nil
}

// Name returns the workload name.
func (w *Workload) Name() string { return w.name }

// DSL renders the workload's program in the text DSL.
func (w *Workload) DSL() string { return dsl.Format(w.prog) }

// SetTiming overrides the execution-time variation model: noisePct is
// the zero-mean per-step jitter, biasPct the systematic per-nest
// estimation error, and seed fixes the deterministic streams.
func (w *Workload) SetTiming(noisePct, biasPct float64, seed uint64) {
	w.noisePct, w.biasPct, w.seed = noisePct, biasPct, seed
}

// SetLayout assigns an explicit disk layout (the paper's 3-tuple:
// starting disk, stripe factor, stripe size) to one array, overriding
// the default staggered striping — the equivalent of passing the
// layout information to the compiler on the command line (Section 3).
func (w *Workload) SetLayout(array string, startDisk, factor int, unitBytes int64) error {
	if w.prog.ArrayByName(array) == nil {
		return fmt.Errorf("sdpm: no array %q in %s", array, w.name)
	}
	// Reject bad tuples here, where the caller still has the flag
	// context, instead of letting layout placement fail later.
	if startDisk < 0 {
		return fmt.Errorf("sdpm: layout for %q: negative starting disk %d", array, startDisk)
	}
	if factor <= 0 {
		return fmt.Errorf("sdpm: layout for %q: non-positive stripe factor %d", array, factor)
	}
	if unitBytes <= 0 {
		return fmt.Errorf("sdpm: layout for %q: non-positive stripe unit %d bytes", array, unitBytes)
	}
	if w.overrides == nil {
		w.overrides = make(map[string]layout.Striping)
	}
	w.overrides[array] = layout.Striping{StartDisk: startDisk, Factor: factor, UnitBytes: unitBytes}
	return nil
}

// coreConfig builds the internal configuration.
func (w *Workload) coreConfig(cfg Config) (core.Config, error) {
	cc := core.DefaultConfig()
	if cfg.NumDisks > 0 {
		cc.NumDisks = cfg.NumDisks
	}
	if cfg.StripeUnitBytes > 0 {
		cc.UnitBytes = cfg.StripeUnitBytes
	}
	cc.CacheUnits = w.cacheUnits
	if cfg.CacheUnits > 0 {
		cc.CacheUnits = cfg.CacheUnits
	}
	noise, bias := w.noisePct, w.biasPct
	if cfg.NoisePct >= 0 {
		noise = cfg.NoisePct
	}
	if cfg.BiasPct >= 0 {
		bias = cfg.BiasPct
	}
	m := cycles.New(cycles.DefaultClockHz, noise, w.seed)
	m.BiasPct = bias
	cc.Model = m
	cc.DisablePreactivation = cfg.DisablePreactivation
	cc.DistanceAwareSeek = cfg.DistanceAwareSeek
	cc.DisableBatch = cfg.DisableBatch
	if cfg.FaultSpec != "" {
		fc, err := faults.ParseSpec(cfg.FaultSpec)
		if err != nil {
			return core.Config{}, err
		}
		cc.Faults = fc
		cc.FaultSeed = cfg.FaultSeed
	}
	return cc, cc.Validate()
}

func (w *Workload) instance(cfg Config) (*core.Instance, error) {
	cc, err := w.coreConfig(cfg)
	if err != nil {
		return nil, err
	}
	return core.Prepare(w.name, w.prog, cc, w.overrides)
}

// Run simulates the workload under the given scheme.
func (w *Workload) Run(s Scheme, cfg Config) (Result, error) {
	in, err := w.instance(cfg)
	if err != nil {
		return Result{}, err
	}
	res, err := in.Run(s)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Program: w.name, Scheme: s,
		EnergyJ: res.EnergyJ, ExecMS: res.ExecMS,
		Requests: res.Requests, PowerOps: res.PowerOps,
		WaitMS: res.TotalWaitMS,
	}, nil
}

// RunOpen replays the workload's trace in open-loop (arrival-driven,
// per-disk FIFO queueing) mode under a reactive or oracle scheme —
// the classical DiskSim-style replay, in contrast to Run's
// closed-loop execution.
func (w *Workload) RunOpen(s Scheme, cfg Config) (Result, error) {
	in, err := w.instance(cfg)
	if err != nil {
		return Result{}, err
	}
	res, err := in.RunOpen(s)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Program: w.name, Scheme: s,
		EnergyJ: res.EnergyJ, ExecMS: res.ExecMS,
		Requests: res.Requests, WaitMS: res.TotalWaitMS,
	}, nil
}

// RunAll simulates the workload under every scheme.
func (w *Workload) RunAll(cfg Config) ([]Result, error) {
	in, err := w.instance(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, len(core.AllSchemes()))
	for _, s := range core.AllSchemes() {
		res, err := in.Run(s)
		if err != nil {
			return nil, err
		}
		out = append(out, Result{
			Program: w.name, Scheme: s,
			EnergyJ: res.EnergyJ, ExecMS: res.ExecMS,
			Requests: res.Requests, PowerOps: res.PowerOps,
			WaitMS: res.TotalWaitMS,
		})
	}
	return out, nil
}

// Transform applies a code/layout version (Section 6) and returns
// the transformed workload. The bool reports whether the compiler
// found anything to transform: when false the returned workload is
// behaviourally identical to the receiver (the paper's "not
// fissionable" / "already conforming" cases).
func (w *Workload) Transform(v Version, cfg Config) (*Workload, bool, error) {
	cc, err := w.coreConfig(cfg)
	if err != nil {
		return nil, false, err
	}
	var nestCost []float64
	if v == core.VTLDL {
		in, err := core.Prepare(w.name, w.prog, cc, w.overrides)
		if err != nil {
			return nil, false, err
		}
		nestCost = in.NestRequests()
	}
	tp, overrides, applied, err := core.ApplyVersion(w.prog, v, cc, nestCost)
	if err != nil {
		return nil, false, err
	}
	nw := *w
	nw.name = w.name + "/" + string(v)
	nw.prog = tp
	nw.overrides = overrides
	return &nw, applied, nil
}

// AnnotatedDSL renders the program with the compiler's inserted
// power-management calls shown as comments inside each nest — the
// paper's Figure 2(d) view of the modified code. The scheme must be
// CMTPM or CMDRPM.
func (w *Workload) AnnotatedDSL(s Scheme, cfg Config) (string, error) {
	mode, ok := s.Mode()
	if !ok {
		return "", fmt.Errorf("sdpm: annotated listing needs CMTPM or CMDRPM, not %q", s)
	}
	in, err := w.instance(cfg)
	if err != nil {
		return "", err
	}
	_, plan, err := in.Instrumented(mode)
	if err != nil {
		return "", err
	}
	calls := make([]dsl.CallSite, len(plan.Calls))
	for i, c := range plan.Calls {
		calls[i] = dsl.CallSite{Nest: c.Nest, Iter: c.Iter, Op: c.Op}
	}
	return dsl.FormatAnnotated(w.prog, calls), nil
}

// SelectScheme performs the paper's strategy selection: the compiler
// instruments the program for both TPM and DRPM, estimates each
// plan's energy on the predicted timeline, and returns the cheaper
// compiler-managed scheme with its predicted energy in joules.
func (w *Workload) SelectScheme(cfg Config) (Scheme, float64, error) {
	in, err := w.instance(cfg)
	if err != nil {
		return "", 0, err
	}
	return in.SelectScheme()
}

// EstimateEnergy returns the compiler's energy prediction (joules)
// for Base, CMTPM, or CMDRPM, without running the simulator.
func (w *Workload) EstimateEnergy(s Scheme, cfg Config) (float64, error) {
	in, err := w.instance(cfg)
	if err != nil {
		return 0, err
	}
	return in.EstimateEnergy(s)
}

// Mispredictions runs the Table 3 analysis on the workload.
func (w *Workload) Mispredictions(cfg Config) (Mispredict, error) {
	in, err := w.instance(cfg)
	if err != nil {
		return Mispredict{}, err
	}
	st, err := in.Mispredictions()
	if err != nil {
		return Mispredict{}, err
	}
	return Mispredict{Pct: st.Pct, Total: st.TotalGaps, Wrong: st.Mispredicted}, nil
}

// DAP renders the workload's Disk Access Pattern (Section 3) on the
// compiler's predicted timeline.
func (w *Workload) DAP(cfg Config) (string, error) {
	in, err := w.instance(cfg)
	if err != nil {
		return "", err
	}
	return in.DAP(0).String(), nil
}

// WriteTrace writes the workload's I/O trace in the textual trace
// format: the instrumented trace (with power-management calls) for
// CMTPM/CMDRPM, the base trace for every other scheme. An unknown
// scheme is an error.
func (w *Workload) WriteTrace(out io.Writer, s Scheme, cfg Config) error {
	in, err := w.instance(cfg)
	if err != nil {
		return err
	}
	tr, err := in.Trace(s)
	if err != nil {
		return err
	}
	return tr.Encode(out)
}

// Requests returns the number of disk requests the workload makes
// under the configuration.
func (w *Workload) Requests(cfg Config) (int, error) {
	in, err := w.instance(cfg)
	if err != nil {
		return 0, err
	}
	return len(in.Sites), nil
}

// Validate checks the workload's program.
func (w *Workload) Validate() error { return w.prog.Validate() }
