package sim

import (
	"fmt"

	"sdpm/internal/disk"
	"sdpm/internal/faults"
	"sdpm/internal/obs"
	"sdpm/internal/obs/events"
	"sdpm/internal/trace"
)

// Policy is a reactive or oracle power-management policy. The
// compiler-managed schemes need no Policy: their decisions arrive as
// power-op events in the trace.
type Policy interface {
	// Name identifies the policy in results.
	Name() string
	// BeforeService runs when a request is about to be issued to
	// disk d at time t. The idle period ending now spans
	// [m.IdleFrom(d), t]; the policy may apply retroactive actions
	// anywhere inside it.
	BeforeService(m *Machine, d int, t float64)
	// AfterService runs when the request completes at time end with
	// the given response time (wait + service).
	AfterService(m *Machine, d int, end, responseMS float64)
	// Finish runs once after the last event, before final energy
	// accounting; endT is the program completion time. Oracle
	// policies exploit each disk's trailing idle period here.
	Finish(m *Machine, endT float64)
}

// TriggerPolicy is optionally implemented by policies to name the
// decision trigger stamped on their provenance events (one of the
// events.Trig* constants). Policies without it are labelled with the
// generic "policy" trigger.
type TriggerPolicy interface {
	DecisionTrigger() string
}

// Config configures a simulation run.
type Config struct {
	// Disk supplies the disk model parameters.
	Disk disk.Params
	// Policy is the reactive/oracle policy; nil means no power
	// management beyond the trace's explicit power ops. A run with a
	// policy drops the trace's power-op events, so the policy alone
	// manages the disks even on an instrumented trace.
	Policy Policy
	// PowerCallOverheadMS is Tm of the paper's Equation 1: the
	// application-side overhead of one explicit power-management
	// call.
	PowerCallOverheadMS float64
	// DistanceAwareSeek replaces the average-seek model with the
	// square-root seek curve over the head's actual movement
	// (requests carry start block numbers).
	DistanceAwareSeek bool
	// RecordTimeline collects per-disk state timelines into the
	// result (Result.Timelines).
	RecordTimeline bool
	// RecordIdles collects every disk's idle periods into the result
	// (Result.Idles), as Audit also does.
	RecordIdles bool
	// Audit verifies the conservation invariants of every run (see
	// Audit): residency and energy-breakdown conservation, the
	// timeline power integral, and state-machine transition legality.
	// A violated invariant fails the run with a structured
	// *AuditError instead of returning a plausible-but-wrong result.
	// The audit records an internal timeline even when RecordTimeline
	// is off (the result's Timelines field stays empty in that case).
	Audit bool
	// Obs, when non-nil, receives the run's metrics: request
	// latencies, residency, power ops, spin-up mispredictions and
	// faults. The run counts itself in Obs when it starts, accumulates
	// the per-request latencies and mispredictions in its own
	// obs.RunMetrics with plain adds, and when it ends, also when it
	// fails, hands over each disk's account and publishes the totals
	// into Obs once. A nil Obs adds no overhead beyond one branch per
	// emit point; a warmed-up collector allocates nothing per run.
	Obs *obs.Collector
	// Faults, when non-nil, injects the plan's deterministic fault
	// schedule (spin-up failures with bounded retry, bad-sector
	// remaps, degradation windows) into the run. The plan must cover
	// at least the trace's disk count.
	Faults *faults.Plan
	// Compiled is the trace's run-length compiled form (see
	// trace.Compile), enabling the batched steady-state executor.
	// When nil (and batching is not disabled or ineligible), Run
	// compiles the trace itself; callers that run many schemes over
	// one trace should pass a memoized form instead. RunOpenLoop
	// never batches; it reads only the form's Validated flag and
	// PerDisk counts. A Compiled built from a different trace (see
	// trace.Compiled.For) is ignored: the trace is validated and, when
	// batching, compiled afresh.
	Compiled *trace.Compiled
	// DisableBatch forces the general per-request path even when a
	// compiled form is available. Results are bit-identical either
	// way; the switch is the reference the differential tests compare
	// the batched executor against.
	DisableBatch bool
	// Events, when non-nil, receives decision-provenance events
	// (power decisions with trigger and inputs, later resolved with
	// the measured idle and energy regret; spin-up misses; fault
	// lifecycle; batch bail-out reasons). The run buffers its events
	// in an events.RunLog and appends them to the log a chunk at a
	// time. Like Obs, a nil log costs one branch per site; an attached
	// log changes no result bit.
	Events *events.Log
	// SchemeLabel overrides the scheme name stamped on events (the
	// engine labels runs by its scheme enum, which can differ from
	// the policy's own name). Empty uses Policy.Name() or "embedded".
	SchemeLabel string
}

// compiledFor returns cfg.Compiled when it was compiled from tr, else
// nil. A compiled form carries a Validated flag from compile time;
// trusting it saves a full trace walk per run (the engine runs many
// schemes over one memoized trace). A form compiled from another trace
// is ignored. A trace that failed validation when compiled is
// validated again in newRun, which returns the error.
func (cfg *Config) compiledFor(tr *trace.Trace) *trace.Compiled {
	if cfg.Compiled != nil && cfg.Compiled.For(tr) {
		return cfg.Compiled
	}
	return nil
}

// DefaultPowerCallOverheadMS is the default power-management call
// overhead (Tm).
const DefaultPowerCallOverheadMS = 0.05

// Result reports one simulation run.
type Result struct {
	Program string
	Scheme  string
	// ExecMS is the application completion time.
	ExecMS float64
	// EnergyJ is the total disk-subsystem energy.
	EnergyJ float64
	// Disks holds per-disk statistics.
	Disks []DiskStats
	// Idles holds, per disk, every inter-request idle period plus
	// the trailing idle period when Config.RecordIdles or
	// Config.Audit was set; nil otherwise.
	Idles [][]IdlePeriod
	// Requests is the number of I/O requests serviced.
	Requests int
	// PowerOps is the number of explicit power-management calls
	// executed.
	PowerOps int
	// TotalWaitMS is the total request wait (readiness) time — the
	// source of any execution-time penalty.
	TotalWaitMS float64
	// Timelines holds the per-disk state timelines when
	// Config.RecordTimeline was set.
	Timelines [][]Segment
}

// runExec carries one simulation run: its machine, with every
// observer the configuration asks for attached, and the mutable
// cursor state of the event walk. Run and RunOpenLoop both set it up
// with newRun and end it with finish, so validation, attaching and
// publishing the observers, result assembly and the audit exist once.
// The closed-loop per-request loop and the batched executor's
// bail-outs go through its step method, and step and the open-loop
// replay issue requests through its request method, so there is
// exactly one implementation of general event semantics.
type runExec struct {
	m        *Machine
	tr       *trace.Trace
	cfg      Config // a copy, so the caller's Config stays on its stack
	scheme   string // Result.Scheme
	clock    float64
	powerOps int
	// queueMS is open-loop replay's FIFO queueing delay, which the
	// result adds to the machine's readiness waits.
	queueMS float64
}

// newRun validates cfg against tr and returns the run's executor over
// a fresh machine with the configured models and observers attached.
// open selects open-loop replay, which charges no power-call overhead
// and suffixes the scheme name with "/open". comp, when non-nil, is
// tr's compiled form (Compiled.For holds): a form that was validated
// when it was compiled spares the trace walk, and its PerDisk sizes
// the recorded idle-period lists.
func newRun(tr *trace.Trace, cfg *Config, open bool, comp *trace.Compiled) (runExec, error) {
	if err := cfg.Disk.Validate(); err != nil {
		return runExec{}, err
	}
	if comp == nil || !comp.Validated {
		if err := tr.Validate(); err != nil {
			return runExec{}, err
		}
	}
	if !open && cfg.PowerCallOverheadMS < 0 {
		return runExec{}, fmt.Errorf("sim: negative power call overhead")
	}
	if cfg.Faults != nil && cfg.Faults.NumDisks() < tr.NumDisks {
		return runExec{}, fmt.Errorf("sim: fault plan covers %d disks, trace uses %d", cfg.Faults.NumDisks(), tr.NumDisks)
	}
	// No policy means the trace's embedded power ops (if any) drove
	// the disks; name the scheme so result tables and metric labels
	// are never blank.
	scheme := "embedded"
	if cfg.Policy != nil {
		scheme = cfg.Policy.Name()
	}
	if open {
		scheme += "/open"
	}
	m := NewMachine(tr.NumDisks, cfg.Disk)
	if cfg.DistanceAwareSeek {
		m.EnableDistanceSeek(cfg.Disk.CapacityBlocks())
	}
	if cfg.RecordTimeline || cfg.Audit {
		// The audit needs the timeline for its power-integral and
		// transition-legality checks even when the caller did not ask
		// to keep it.
		m.EnableTimeline()
	}
	if cfg.RecordIdles || cfg.Audit {
		// The audit checks the idle periods against the residency.
		// Each disk gets one idle period per request plus the
		// trailing one, so the event loop never grows the lists.
		if comp != nil {
			m.ReserveIdles(comp.PerDisk)
		} else {
			m.ReserveIdles(tr.PerDiskRequests())
		}
	}
	m.AttachFaults(cfg.Faults)
	if cfg.Obs != nil {
		m.obs = cfg.Obs.StartRun(tr.NumDisks, cfg.Disk.MinRPM, cfg.Disk.RPMStep, cfg.Disk.NumLevels())
	}
	if cfg.Events != nil {
		label := cfg.SchemeLabel
		if label == "" {
			label = scheme
		}
		polTrig := ""
		if tp, ok := cfg.Policy.(TriggerPolicy); ok {
			polTrig = tp.DecisionTrigger()
		} else if cfg.Policy != nil {
			polTrig = "policy"
		}
		m.attachEvents(cfg.Events.StartRun(), tr.Program, label, polTrig, cfg.Disk.TPMBreakEvenMS())
	}
	return runExec{m: m, tr: tr, cfg: *cfg, scheme: scheme}, nil
}

// finish ends the run at e.clock, or abandons it when err is non-nil.
// A completed run first runs the policy's Finish and closes the
// disks' accounts. Either way the run's metrics are then published
// and its buffered events appended to the log. A completed run's
// result is assembled and, under Config.Audit, audited.
func (e *runExec) finish(err error) (*Result, error) {
	m, cfg := e.m, &e.cfg
	var stats []DiskStats
	var idles [][]IdlePeriod
	if err == nil {
		if cfg.Policy != nil {
			m.setTrigger(events.TrigFinish, 0)
			cfg.Policy.Finish(m, e.clock)
			m.restoreTrigger()
		}
		stats, idles = m.Finish(e.clock)
	}
	if m.obs.Attached() {
		m.publishMetrics()
	}
	if m.ev != nil {
		m.ev.Close()
		m.ev = nil
	}
	if err != nil {
		return nil, err
	}
	res := &Result{
		Program:  e.tr.Program,
		Scheme:   e.scheme,
		ExecMS:   e.clock,
		Disks:    stats,
		Idles:    idles,
		PowerOps: e.powerOps,
	}
	if cfg.RecordTimeline || cfg.Audit {
		res.Timelines = m.Timelines()
	}
	for d := range stats {
		res.EnergyJ += stats[d].EnergyJ
		res.Requests += stats[d].Requests
		res.TotalWaitMS += stats[d].WaitMS
	}
	res.TotalWaitMS += e.queueMS
	if cfg.Audit {
		if aerr := Audit(res, cfg.Disk, cfg.Faults != nil); aerr != nil {
			return nil, aerr
		}
		if !cfg.RecordTimeline {
			res.Timelines = nil
		}
	}
	return res, nil
}

// step executes one event through the general path.
func (e *runExec) step(i int) error {
	ev := &e.tr.Events[i]
	e.clock += ev.GapMS
	switch ev.Kind {
	case trace.EvPowerOp:
		if e.cfg.Policy != nil {
			return nil
		}
		op := &ev.Op
		// Trace-embedded ops are the compiler's hints; they carry its
		// idle prediction into the decision event.
		e.m.setTrigger(events.TrigHint, op.PredictedIdleMS)
		switch d := int(op.Disk); op.Kind {
		case trace.OpSpinDown:
			e.m.SpinDownAt(d, e.clock)
		case trace.OpSpinUp:
			e.m.SpinUpAt(d, e.clock)
		case trace.OpSetRPM:
			e.m.SetRPMAt(d, e.clock, int(op.RPM))
		}
		e.m.restoreTrigger()
		e.powerOps++
		e.clock += e.cfg.PowerCallOverheadMS
	case trace.EvRequest:
		end, err := e.request(&ev.Req, e.clock, e.clock)
		if err != nil {
			return err
		}
		e.clock = end
	}
	return nil
}

// request issues req to its disk at time issue: the policy's
// BeforeService, the service, then AfterService with the response
// time measured from `from` — the issue time in the closed loop, the
// nominal arrival in open-loop replay. It returns the completion time.
func (e *runExec) request(req *trace.Request, issue, from float64) (float64, error) {
	d, pol := int(req.Disk), e.cfg.Policy
	if pol != nil {
		pol.BeforeService(e.m, d, issue)
	}
	end, err := e.m.ServiceBlock(d, issue, req.Bytes, req.Block)
	if err != nil {
		return 0, err
	}
	if pol != nil {
		e.m.setTrigger(events.TrigController, 0)
		pol.AfterService(e.m, d, end, end-from)
		e.m.restoreTrigger()
	}
	return end, nil
}

// walk executes the trace's events in order. With batching on, each
// compiled run goes through the batched executor, which hands single
// events it cannot batch back to step.
func (e *runExec) walk(comp *trace.Compiled, batching bool, hz Horizon) error {
	evs := e.tr.Events
	if !batching {
		for i := range evs {
			if err := e.step(i); err != nil {
				return err
			}
		}
		return nil
	}
	m := e.m
	ri := 0
	i := 0
	for i < len(evs) {
		if ri < len(comp.Runs) && comp.Runs[ri].Start == i {
			run := &comp.Runs[ri]
			ri++
			for i < run.End {
				var why string
				i, e.clock, why = m.serviceRun(evs[:run.End], i, e.clock, hz, e.cfg.Policy)
				if i < run.End {
					// One event through the general path (a policy
					// action, fault hit, or transitional disk state),
					// then back to the fast loop.
					if m.ev != nil {
						m.emitBailout(&evs[i], e.clock, why)
					}
					if err := e.step(i); err != nil {
						return err
					}
					i++
				}
			}
			continue
		}
		if err := e.step(i); err != nil {
			return err
		}
		i++
	}
	return nil
}

// Run simulates the trace under the configuration and returns the
// result.
func Run(tr *trace.Trace, cfg Config) (*Result, error) {
	// Batching eligibility: the distance-aware seek model carries
	// per-request head state the fast path does not track, and a
	// policy must describe its decision horizon to be skipped over.
	var hz Horizon
	batching := !cfg.DisableBatch && !cfg.DistanceAwareSeek
	if cfg.Policy != nil {
		if hp, ok := cfg.Policy.(HorizonPolicy); ok {
			hz = hp.Horizon()
		} else {
			batching = false
		}
	}
	comp := cfg.compiledFor(tr)
	if batching && comp == nil {
		comp = trace.Compile(tr)
	}
	e, err := newRun(tr, &cfg, false, comp)
	if err != nil {
		return nil, err
	}
	return e.finish(e.walk(comp, batching, hz))
}
