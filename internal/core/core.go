// Package core wires the compiler side (analysis, transformation,
// power-call insertion, trace generation) to the simulator side
// (policies, disk model) into the pipelines the paper evaluates: it
// prepares a program on a disk subsystem, runs it under any of the
// seven power-management schemes of Section 4.2, and applies the
// code/layout versions of Section 6.
package core

import (
	"fmt"
	"strings"
	"sync"

	"sdpm/internal/access"
	"sdpm/internal/cycles"
	"sdpm/internal/dap"
	"sdpm/internal/disk"
	"sdpm/internal/faults"
	"sdpm/internal/insert"
	"sdpm/internal/ir"
	"sdpm/internal/layout"
	"sdpm/internal/obs"
	"sdpm/internal/obs/events"
	"sdpm/internal/oracle"
	"sdpm/internal/policy"
	"sdpm/internal/sim"
	"sdpm/internal/trace"
	"sdpm/internal/tracegen"
	"sdpm/internal/xform"
)

// Scheme names a disk power management scheme of Section 4.2.
type Scheme string

// The seven evaluated schemes.
const (
	Base   Scheme = "Base"
	TPM    Scheme = "TPM"
	ITPM   Scheme = "ITPM"
	DRPM   Scheme = "DRPM"
	IDRPM  Scheme = "IDRPM"
	CMTPM  Scheme = "CMTPM"
	CMDRPM Scheme = "CMDRPM"
)

// schemeRun says how one scheme runs. A reactive or oracle scheme
// runs the base trace under its simulator policy; a compiler-managed
// scheme (nil policy) runs the trace its instrumentation mode fills
// with power calls, which then drive the disks.
type schemeRun struct {
	scheme Scheme
	policy func(p disk.Params) sim.Policy
	mode   insert.Mode
}

// schemeTable lists every scheme in the paper's Figure 3 order.
var schemeTable = []schemeRun{
	{Base, func(disk.Params) sim.Policy { return policy.NewBase() }, 0},
	{TPM, func(p disk.Params) sim.Policy { return policy.NewTPM(p) }, 0},
	{ITPM, func(p disk.Params) sim.Policy { return policy.NewITPM(p) }, 0},
	{DRPM, func(p disk.Params) sim.Policy { return policy.NewDRPM(p) }, 0},
	{IDRPM, func(p disk.Params) sim.Policy { return policy.NewIDRPM(p) }, 0},
	{CMTPM, nil, insert.ModeTPM},
	{CMDRPM, nil, insert.ModeDRPM},
}

// AllSchemes returns the schemes in the paper's Figure 3 order.
func AllSchemes() []Scheme {
	out := make([]Scheme, len(schemeTable))
	for i, r := range schemeTable {
		out[i] = r.scheme
	}
	return out
}

// ParseScheme resolves a scheme name case-insensitively.
func ParseScheme(name string) (Scheme, bool) {
	for _, r := range schemeTable {
		if strings.EqualFold(string(r.scheme), name) {
			return r.scheme, true
		}
	}
	return "", false
}

// run returns the scheme's table entry.
func (s Scheme) run() (schemeRun, bool) {
	for _, r := range schemeTable {
		if r.scheme == s {
			return r, true
		}
	}
	return schemeRun{}, false
}

// Policy builds the simulator policy of a reactive or oracle scheme;
// ok is false for a compiler-managed or unknown scheme.
func (s Scheme) Policy(p disk.Params) (sim.Policy, bool) {
	if r, ok := s.run(); ok && r.policy != nil {
		return r.policy(p), true
	}
	return nil, false
}

// Mode returns the instrumentation mode of a compiler-managed scheme;
// ok is false for every other scheme.
func (s Scheme) Mode() (insert.Mode, bool) {
	if r, ok := s.run(); ok && r.policy == nil {
		return r.mode, true
	}
	return 0, false
}

// Version names a code/layout version of Section 6.
type Version string

// The evaluated code versions.
const (
	VOrig Version = "orig"
	VLF   Version = "LF"
	VTL   Version = "TL"
	VLFDL Version = "LF+DL"
	VTLDL Version = "TL+DL"
	// VIC is loop interchange — an extension beyond the paper's two
	// transformations, implementing its remark that other loop
	// transformations can be adapted to disk layouts.
	VIC Version = "IC"
)

// AllVersions returns the code versions in the paper's order.
func AllVersions() []Version {
	return []Version{VOrig, VLF, VTL, VLFDL, VTLDL}
}

// ExtendedVersions returns the paper's versions plus the extensions.
func ExtendedVersions() []Version {
	return append(AllVersions(), VIC)
}

// Config collects every knob of the experimental platform.
type Config struct {
	// Disk holds the Table 1 disk parameters.
	Disk disk.Params
	// NumDisks is the subsystem size; the default striping uses all
	// of them (Table 1's stripe factor).
	NumDisks int
	// UnitBytes is the default stripe unit size.
	UnitBytes int64
	// CacheUnits is the buffer cache capacity in stripe units; it
	// must be positive unless NoCache is set.
	CacheUnits int
	// Model is the cycle/jitter model (nil: exact 750 MHz).
	Model *cycles.Model
	// PowerCallOverheadMS is Tm of Equation 1.
	PowerCallOverheadMS float64
	// DisablePreactivation drops pre-activation calls (ablation).
	DisablePreactivation bool
	// NoCache disables the buffer cache (ablation).
	NoCache bool
	// DistanceAwareSeek replaces the average-seek model with the
	// square-root seek curve over actual head movement.
	DistanceAwareSeek bool
	// Faults configures deterministic fault injection (spin-up
	// failures, bad-sector remaps, degradation windows); the zero
	// value injects nothing.
	Faults faults.Config
	// FaultSeed seeds the fault plan; the same seed always yields the
	// same fault schedule, at any worker count.
	FaultSeed int64
	// Audit verifies the simulator's conservation invariants after
	// every run (see sim.Audit), failing the run with a structured
	// report on any violation. Auditing never changes results, so the
	// flag is deliberately excluded from Fingerprint — audited and
	// unaudited runs share cache entries and journal records.
	Audit bool
}

// DefaultConfig returns the Table 1 configuration.
func DefaultConfig() Config {
	return Config{
		Disk:                disk.DefaultParams(),
		NumDisks:            8,
		UnitBytes:           65536,
		CacheUnits:          16,
		PowerCallOverheadMS: sim.DefaultPowerCallOverheadMS,
	}
}

func (c *Config) model() *cycles.Model {
	if c.Model != nil {
		return c.Model
	}
	return cycles.New(cycles.DefaultClockHz, 0, 0)
}

// Fingerprint returns a canonical string covering every field that
// influences Prepare and simulation, resolving the cycle model to its
// values (two configs with distinct but value-equal *cycles.Model
// fingerprint identically). It is the configuration half of the
// experiment cell and journal keys; Cache keys on prepKey.
func (c *Config) Fingerprint() string {
	m := c.model()
	return fmt.Sprintf("disk{%+v} nd=%d unit=%d cache=%d model{%g,%g,%g,%d} tm=%g nopre=%t nocache=%t distseek=%t faults{%s seed=%d}",
		c.Disk, c.NumDisks, c.UnitBytes, c.CacheUnits,
		m.ClockHz, m.NoisePct, m.BiasPct, m.Seed,
		c.PowerCallOverheadMS, c.DisablePreactivation, c.NoCache, c.DistanceAwareSeek,
		faults.FormatSpec(c.Faults), c.FaultSeed)
}

// prepKey fingerprints the fields Prepare and the traces it derives
// read. It zeroes the run-only settings, the fields only a simulation
// run reads, so one preparation serves them all.
func (c Config) prepKey() string {
	c.PowerCallOverheadMS, c.DistanceAwareSeek = 0, false
	c.Faults, c.FaultSeed, c.Audit = faults.Config{}, 0, false
	return c.Fingerprint()
}

// SetFaults sets the fault injection from a spec and its seed. A
// spec that injects nothing (empty, "off", "retries=3") leaves the
// configuration fault-free with seed 0, so its runs and its
// Fingerprint match a fault-free configuration's.
func (c *Config) SetFaults(spec string, seed int64) error {
	fc, err := faults.ParseSpec(spec)
	if err != nil {
		return err
	}
	if !fc.Enabled() {
		fc, seed = faults.Config{}, 0
	}
	c.Faults, c.FaultSeed = fc, seed
	return nil
}

// CacheUnitsError reports a configuration whose buffer cache holds no
// stripe unit while the cache is on: a capacity of 0 is the cacheless
// walk, which only NoCache asks for.
type CacheUnitsError struct {
	CacheUnits int
}

func (e *CacheUnitsError) Error() string {
	return fmt.Sprintf("core: buffer cache of %d units; set NoCache to run without a cache", e.CacheUnits)
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if err := c.Disk.Validate(); err != nil {
		return err
	}
	if c.NumDisks <= 0 {
		return fmt.Errorf("core: non-positive disk count")
	}
	if c.UnitBytes <= 0 || c.UnitBytes%layout.BlockSize != 0 {
		return fmt.Errorf("core: bad stripe unit %d", c.UnitBytes)
	}
	if c.CacheUnits <= 0 && !c.NoCache {
		return &CacheUnitsError{CacheUnits: c.CacheUnits}
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// faultPlan derives the configuration's fault plan (nil when fault
// injection is disabled).
func (c *Config) faultPlan() (*faults.Plan, error) {
	if !c.Faults.Enabled() {
		return nil, nil
	}
	return faults.New(c.FaultSeed, c.NumDisks, c.Faults)
}

// Instance is a program prepared on a disk subsystem: placed,
// analyzed, and ready to run under any scheme.
//
// An Instance is safe for concurrent use: the derived artifacts
// (base trace, instrumented traces) are built once under a lock, and
// Run is re-entrant — all per-run state (the disk state machine, the
// policy, the O(1) fault plan) is built afresh by each run, so any
// number of schemes can be simulated on one Instance at once.
type Instance struct {
	Name    string
	Program *ir.Program
	Sites   []tracegen.Site
	// Files is the file-name table the sites' File fields index; the
	// instance's traces share it as their Files.
	Files []string
	Cfg   Config
	// Obs, when non-nil, receives metrics from every simulation run
	// on this instance. Set it before the first Run (Cache sets it
	// automatically from its own collector). It is deliberately not
	// part of the memoization key: collectors observe runs, they do
	// not change them.
	Obs *obs.Collector
	// Events, when non-nil, receives decision-provenance events from
	// every simulation run on this instance. Like Obs it is set before
	// the first Run and excluded from the memoization key: the event
	// log observes runs without changing them (sim.Run guarantees
	// bit-identical results with and without a log attached).
	Events *events.Log

	// derived holds the lazy artifacts, which read only the sites and
	// files, the disk count and parameters and the cycle model:
	// copies under other names and run-only settings share them, and
	// so may instances of other programs or configurations (Cache).
	*derived
}

type derived struct {
	mu        sync.Mutex // guards the lazy caches below
	baseTrace *trace.Trace
	// instr is keyed on what instrumentation reads beyond the
	// derived artifacts' own inputs.
	instr map[instrKey]*instrumented
	// compiled is keyed on a trace's first event, the identity
	// trace.Compiled.For checks, so traces that share one event slice
	// under different names share one compiled form.
	compiled map[*trace.Event]*trace.Compiled
}

func newDerived() *derived {
	return &derived{instr: make(map[instrKey]*instrumented)}
}

type instrKey struct {
	mode  insert.Mode
	noPre bool // Config.DisablePreactivation
}

type instrumented struct {
	tr   *trace.Trace
	plan *insert.Plan
}

// Prepare places the program's arrays (staggered default striping,
// with per-array overrides from a layout-aware transformation),
// extracts the request sites, and returns a runnable instance.
func Prepare(name string, p *ir.Program, cfg Config, overrides map[string]layout.Striping) (*Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sites, files, err := walk(p, cfg, overrides)
	if err != nil {
		return nil, err
	}
	return &Instance{
		Name: name, Program: p, Sites: sites, Files: files, Cfg: cfg,
		derived: newDerived(),
	}, nil
}

// walk is the part of Prepare that reads the program: it places the
// arrays and extracts the request sites and their file table. Of cfg
// it reads only the disk count, the stripe unit and the buffer cache.
func walk(p *ir.Program, cfg Config, overrides map[string]layout.Striping) ([]tracegen.Site, []string, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	sub, err := layout.NewSubsystem(cfg.NumDisks)
	if err != nil {
		return nil, nil, err
	}
	if err := access.PlaceArraysStaggered(p, sub, cfg.NumDisks, cfg.UnitBytes, overrides); err != nil {
		return nil, nil, err
	}
	return tracegen.Sites(p, sub, cfg.walkCacheUnits())
}

// walkCacheUnits is the buffer cache capacity the site walk runs
// with: 0, the cacheless walk, under NoCache.
func (c *Config) walkCacheUnits() int {
	if c.NoCache {
		return 0
	}
	return c.CacheUnits
}

// withRun returns the instance under name and cfg, which has
// in.Cfg's prepKey: the instance itself when both equal its own,
// otherwise a copy that carries them and shares in's derived
// artifacts.
func (in *Instance) withRun(name string, cfg Config) *Instance {
	mine := in.Cfg
	mine.Model = cfg.Model // equal in value, as prepKey resolves models
	if mine == cfg && in.Name == name {
		return in
	}
	cp := *in
	cp.Name, cp.Cfg = name, cfg
	return &cp
}

// named returns tr under the instance's name: tr itself when it was
// built under that name, else a header copy that shares its events
// (the derived artifacts are built under whichever name asked first).
func (in *Instance) named(tr *trace.Trace) *trace.Trace {
	if tr.Program == in.Name {
		return tr
	}
	cp := *tr
	cp.Program = in.Name
	return &cp
}

// BaseTrace returns (and caches) the uninstrumented runtime trace.
// The returned trace is shared and must be treated as read-only
// (sim.Run never mutates its input).
func (in *Instance) BaseTrace() *trace.Trace {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.baseTrace == nil {
		in.baseTrace = insert.Base(in.Name, in.Cfg.NumDisks, in.Sites, insert.Options{
			Disk: in.Cfg.Disk, Model: in.Cfg.model(), Files: in.Files,
		})
	}
	return in.named(in.baseTrace)
}

// Instrumented returns (and caches) the compiler-instrumented trace
// and plan for the given mode. Like BaseTrace, the results are
// shared and read-only.
func (in *Instance) Instrumented(mode insert.Mode) (*trace.Trace, *insert.Plan, error) {
	key := instrKey{mode: mode, noPre: in.Cfg.DisablePreactivation}
	in.mu.Lock()
	defer in.mu.Unlock()
	if got, ok := in.instr[key]; ok {
		return in.named(got.tr), got.plan, nil
	}
	tr, plan, err := insert.Instrument(in.Name, in.Cfg.NumDisks, in.Sites, insert.Options{
		Mode: mode, Disk: in.Cfg.Disk, Model: in.Cfg.model(),
		DisablePreactivation: in.Cfg.DisablePreactivation,
		Files:                in.Files,
	})
	if err != nil {
		return nil, nil, err
	}
	in.instr[key] = &instrumented{tr: tr, plan: plan}
	return tr, plan, nil
}

// Compiled returns (and caches) the run-length compiled form of a
// trace this instance handed out (the base trace or an instrumented
// one), so every scheme and name sharing a trace's events shares its
// compiled form.
func (in *Instance) Compiled(tr *trace.Trace) *trace.Compiled {
	var first *trace.Event
	if len(tr.Events) > 0 {
		first = &tr.Events[0]
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.compiled == nil {
		in.compiled = make(map[*trace.Event]*trace.Compiled)
	}
	c, ok := in.compiled[first]
	if !ok {
		c = trace.Compile(tr)
		in.compiled[first] = c
	}
	return c
}

// Trace returns the trace a scheme runs on: the instrumented trace of
// a compiler-managed scheme, the base trace of any other. Like
// BaseTrace, it is shared and read-only.
func (in *Instance) Trace(s Scheme) (*trace.Trace, error) {
	r, ok := s.run()
	switch {
	case !ok:
		return nil, fmt.Errorf("core: unknown scheme %q", s)
	case r.policy != nil:
		return in.BaseTrace(), nil
	}
	tr, _, err := in.Instrumented(r.mode)
	return tr, err
}

// Run simulates the instance under the given scheme.
func (in *Instance) Run(s Scheme) (*sim.Result, error) {
	return in.run(s, false)
}

// run is Run, with the result's idle periods (sim.Result.Idles)
// recorded when idles is set.
func (in *Instance) run(s Scheme, idles bool) (*sim.Result, error) {
	tr, cfg, err := in.simConfig(s)
	if err != nil {
		return nil, err
	}
	cfg.RecordIdles = idles
	res, err := sim.Run(tr, cfg)
	if err != nil {
		return nil, err
	}
	res.Scheme = string(s)
	res.Program = in.Name
	return res, nil
}

// simConfig returns the trace Run simulates under the given scheme
// and the simulator configuration it runs with, the trace's memoized
// compiled form included.
func (in *Instance) simConfig(s Scheme) (*trace.Trace, sim.Config, error) {
	tr, err := in.Trace(s)
	if err != nil {
		return nil, sim.Config{}, err
	}
	plan, err := in.Cfg.faultPlan()
	if err != nil {
		return nil, sim.Config{}, err
	}
	cfg := sim.Config{
		Disk:                in.Cfg.Disk,
		PowerCallOverheadMS: in.Cfg.PowerCallOverheadMS,
		DistanceAwareSeek:   in.Cfg.DistanceAwareSeek,
		Obs:                 in.Obs,
		Events:              in.Events,
		SchemeLabel:         string(s),
		Faults:              plan,
		Audit:               in.Cfg.Audit,
		Compiled:            in.Compiled(tr),
	}
	// A compiler-managed scheme gets no policy: its trace's power
	// calls drive the disks.
	cfg.Policy, _ = s.Policy(in.Cfg.Disk)
	return tr, cfg, nil
}

// RunOpen replays the instance's trace in open-loop (arrival-driven,
// per-disk FIFO) mode under a reactive or oracle scheme. The
// compiler-managed schemes are closed-loop by construction (their
// power calls are program-order events), so they are rejected here,
// before any trace is built.
func (in *Instance) RunOpen(s Scheme) (*sim.Result, error) {
	if r, ok := s.run(); !ok || r.policy == nil {
		return nil, fmt.Errorf("core: open-loop replay supports reactive/oracle schemes, not %q", s)
	}
	tr, cfg, err := in.simConfig(s)
	if err != nil {
		return nil, err
	}
	cfg.SchemeLabel += "/open"
	res, err := sim.RunOpenLoop(tr, cfg)
	if err != nil {
		return nil, err
	}
	res.Program = in.Name
	return res, nil
}

// Mispredictions runs the Table 3 analysis: the CMDRPM plan's speed
// choices versus the oracle-optimal choices for the actual idle
// periods of a base run.
func (in *Instance) Mispredictions() (oracle.MispredictStats, error) {
	_, plan, err := in.Instrumented(insert.ModeDRPM)
	if err != nil {
		return oracle.MispredictStats{}, err
	}
	base, err := in.run(Base, true)
	if err != nil {
		return oracle.MispredictStats{}, err
	}
	return oracle.Mispredictions(plan, base.Idles, in.Cfg.Disk)
}

// EstimateEnergy returns the compiler's energy prediction for the
// given scheme (Base, CMTPM, or CMDRPM) on the predicted timeline.
func (in *Instance) EstimateEnergy(s Scheme) (float64, error) {
	if s == Base {
		_, plan, err := in.Instrumented(insert.ModeDRPM)
		if err != nil {
			return 0, err
		}
		return plan.BaseEnergyJ, nil
	}
	mode, ok := s.Mode()
	if !ok {
		return 0, fmt.Errorf("core: no compiler estimate for scheme %q", s)
	}
	_, plan, err := in.Instrumented(mode)
	if err != nil {
		return 0, err
	}
	return plan.EnergyJ, nil
}

// SelectScheme performs the paper's strategy selection: the compiler
// instruments the program for both TPM and DRPM, estimates each
// plan's energy, and returns the cheaper compiler-managed scheme
// together with its predicted energy.
func (in *Instance) SelectScheme() (Scheme, float64, error) {
	tpm, err := in.EstimateEnergy(CMTPM)
	if err != nil {
		return "", 0, err
	}
	drpm, err := in.EstimateEnergy(CMDRPM)
	if err != nil {
		return "", 0, err
	}
	if tpm < drpm {
		return CMTPM, tpm, nil
	}
	return CMDRPM, drpm, nil
}

// NestRequests returns the per-nest request counts, the disk-energy
// cost metric handed to the layout-aware tiler.
func (in *Instance) NestRequests() []float64 {
	out := make([]float64, len(in.Program.Nests))
	for _, s := range in.Sites {
		out[s.Nest]++
	}
	return out
}

// DAP builds the disk access pattern of the instance on the
// compiler's predicted timeline, with dap.Build's default coalescing
// window.
func (in *Instance) DAP() *dap.DAP {
	p := in.Cfg.Disk
	svc := func(b int64) float64 { return p.ServiceTimeMS(p.MaxRPM, b) }
	issue := tracegen.PredictedIssueMS(in.Sites, in.Cfg.model(), svc)
	return dap.Build(in.Sites, issue, in.Cfg.NumDisks, svc, 0)
}

// ApplyVersion applies a Section 6 code/layout version to a program.
// It returns the transformed program, the per-array striping
// overrides the transformation determined (nil for the oblivious
// versions), and whether the transformation applied at all — the
// compiler leaves a program unchanged when it finds nothing to
// transform (no fissionable nests; no tileable nest; layouts already
// conforming), which is exactly how wupwise/galgel behave under LF
// and swim/mgrid/galgel under TL+DL in the paper.
func ApplyVersion(p *ir.Program, v Version, cfg Config, nestCost []float64) (*ir.Program, map[string]layout.Striping, bool, error) {
	switch v {
	case VOrig:
		return p, nil, true, nil
	case VLF:
		if !xform.Fissionable(p) {
			return p, nil, false, nil
		}
		return xform.Fission(p), nil, true, nil
	case VLFDL:
		if !xform.Fissionable(p) {
			return p, nil, false, nil
		}
		fp := xform.ClusterByGroup(xform.Fission(p))
		groups := xform.ArrayGroups(fp)
		if len(groups) < 2 || len(groups) > cfg.NumDisks {
			// Nothing to separate, or not enough disks to give every
			// group a disjoint set: the compiler declines.
			return p, nil, false, nil
		}
		st, err := xform.AssignGroupDisks(groups, cfg.NumDisks, cfg.UnitBytes)
		if err != nil {
			return nil, nil, false, err
		}
		return fp, st, true, nil
	case VTL:
		// Layout-oblivious tiling targets the compute-costliest nest
		// with conventional row-panel tiles (a CPU-cache oriented
		// tiler knows nothing of disk layouts).
		res, err := xform.Tile(p, xform.TileOptions{
			UnitBytes: cfg.UnitBytes, NumDisks: cfg.NumDisks, LayoutAware: false,
			PanelTiles: true,
		})
		if err != nil {
			return p, nil, false, nil
		}
		return res.Program, nil, true, nil
	case VTLDL:
		res, err := xform.Tile(p, xform.TileOptions{
			UnitBytes: cfg.UnitBytes, NumDisks: cfg.NumDisks, LayoutAware: true,
			NestCost: nestCost,
		})
		if err != nil {
			return p, nil, false, nil
		}
		if len(res.Transposed) == 0 {
			// The access patterns already conform to the layouts:
			// the transformation has nothing to repair.
			return p, nil, false, nil
		}
		return res.Program, res.Stripings, true, nil
	case VIC:
		ip, changed := xform.Interchange(p)
		if len(changed) == 0 {
			return p, nil, false, nil
		}
		return ip, nil, true, nil
	default:
		return nil, nil, false, fmt.Errorf("core: unknown version %q", v)
	}
}

// DeriveVersion applies the version to the program as ApplyVersion
// does. The layout-aware tiler weighs nests by the original program's
// request counts, so for that version alone it first calls orig for
// the original's preparation.
func DeriveVersion(p *ir.Program, v Version, cfg Config, orig func() (*Instance, error)) (*ir.Program, map[string]layout.Striping, bool, error) {
	var nestCost []float64
	if v == VTLDL {
		in, err := orig()
		if err != nil {
			return nil, nil, false, err
		}
		nestCost = in.NestRequests()
	}
	return ApplyVersion(p, v, cfg, nestCost)
}

// PrepareVersion applies the version to the program and prepares the
// result under the name "name/version". The returned bool reports
// whether the transformation actually applied.
func PrepareVersion(name string, p *ir.Program, v Version, cfg Config) (*Instance, bool, error) {
	return prepareVersion(name, p, v, cfg, Prepare, Prepare)
}

// versionName names the preparation of a code version.
func versionName(name string, v Version) string { return name + "/" + string(v) }

// prepareVersion is PrepareVersion with the preparations left to the
// caller: orig prepares the original program, when DeriveVersion
// needs it, and prepare the version's result.
func prepareVersion(name string, p *ir.Program, v Version, cfg Config,
	orig, prepare func(string, *ir.Program, Config, map[string]layout.Striping) (*Instance, error)) (*Instance, bool, error) {
	tp, overrides, applied, err := DeriveVersion(p, v, cfg, func() (*Instance, error) {
		return orig(name, p, cfg, nil)
	})
	if err != nil {
		return nil, false, err
	}
	in, err := prepare(versionName(name, v), tp, cfg, overrides)
	if err != nil {
		return nil, false, err
	}
	return in, applied, nil
}
