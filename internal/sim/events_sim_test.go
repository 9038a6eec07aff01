package sim_test

// Tests for the decision-provenance event layer threaded through the
// simulator: provenance contents, regret attribution, cross-checks
// against the metrics collector, bail-out reasons, and the alloc
// guarantee with a log attached.

import (
	"math/rand"
	"reflect"
	"testing"

	"sdpm/internal/disk"
	"sdpm/internal/faults"
	"sdpm/internal/obs"
	"sdpm/internal/obs/events"
	"sdpm/internal/policy"
	"sdpm/internal/sim"
	"sdpm/internal/trace"
)

// idleTrace builds a single-disk trace of n requests separated by a
// fixed gap.
func idleTrace(n int, gapMS float64) *trace.Trace {
	tr := &trace.Trace{Program: "evt", NumDisks: 1}
	arrival := 0.0
	for i := 0; i < n; i++ {
		arrival += gapMS
		tr.Events = append(tr.Events, trace.Event{
			Kind: trace.EvRequest, GapMS: gapMS,
			Req: trace.Request{ArrivalMS: arrival, Disk: 0, Block: int64(i * 128), Bytes: 65536},
		})
	}
	return tr
}

// TestEventsTPMProvenanceAndRegret pins the full decision lifecycle
// for reactive TPM over one long idle period: the spin-down carries
// its trigger and break-even input, the on-demand spin-up is
// demand-triggered, the period resolves with the measured idle, and
// only the first decision carries the energy attribution.
func TestEventsTPMProvenanceAndRegret(t *testing.T) {
	p := disk.DefaultParams()
	const gap = 30000.0
	tr := idleTrace(3, gap)
	log := events.NewLog(0)
	cfg := sim.Config{Disk: p, Policy: policy.NewTPM(p), Events: log, DisableBatch: true}
	res, err := sim.Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	evs := log.Events()
	var downs, ups, misses []events.Event
	for _, e := range evs {
		switch e.Kind {
		case events.KindSpinDown:
			downs = append(downs, e)
		case events.KindSpinUp:
			ups = append(ups, e)
		case events.KindSpinupMiss:
			misses = append(misses, e)
		}
	}
	// All three gaps exceed the threshold (arrivals start at t=gap, so
	// the leading idle counts too); the trailing idle is zero (the
	// trace ends at the last completion), so Finish adds no spin-down.
	if len(downs) != 3 || len(ups) != 3 || len(misses) != 3 {
		t.Fatalf("downs/ups/misses = %d/%d/%d, want 3/3/3", len(downs), len(ups), len(misses))
	}
	be := p.TPMBreakEvenMS()
	for _, d := range downs {
		if d.Trigger != events.TrigThreshold {
			t.Errorf("spin-down trigger = %q, want threshold", d.Trigger)
		}
		if d.BreakEvenMS != be {
			t.Errorf("spin-down break-even = %v, want %v", d.BreakEvenMS, be)
		}
		if d.Policy != "TPM" || d.Program != "evt" {
			t.Errorf("spin-down labels = %q/%q", d.Policy, d.Program)
		}
		if d.MeasuredIdleMS != gap {
			t.Errorf("spin-down measured idle = %v, want %v", d.MeasuredIdleMS, gap)
		}
		// First decision of its period: full energy attribution. TPM
		// idles through the threshold before dipping, so it must show
		// positive regret against the oracle.
		oracle := p.IdleEnergyJ(gap)
		if s := p.StandbyEnergyJ(gap); s < oracle {
			oracle = s
		}
		if _, dip := p.BestRPMForIdle(gap); dip < oracle {
			oracle = dip
		}
		if d.OracleJ != oracle {
			t.Errorf("spin-down oracle = %v, want %v", d.OracleJ, oracle)
		}
		if d.ActualJ <= d.OracleJ || d.RegretJ != d.ActualJ-d.OracleJ {
			t.Errorf("spin-down attribution: actual %v oracle %v regret %v", d.ActualJ, d.OracleJ, d.RegretJ)
		}
	}
	for _, u := range ups {
		if u.Trigger != events.TrigDemand {
			t.Errorf("spin-up trigger = %q, want demand", u.Trigger)
		}
		// Not the first decision of the period: measured idle only.
		if u.ActualJ != 0 || u.RegretJ != 0 || u.MeasuredIdleMS != gap {
			t.Errorf("spin-up attribution = %+v", u)
		}
		// The window extends past the idle gap by the spin-up wait.
		if u.WindowMS <= u.MeasuredIdleMS {
			t.Errorf("spin-up window %v not beyond idle %v", u.WindowMS, u.MeasuredIdleMS)
		}
	}
	for _, ms := range misses {
		if ms.Detail != "ondemand" {
			t.Errorf("miss detail = %q, want ondemand", ms.Detail)
		}
		if ms.WindowMS != p.SpinUpMS {
			t.Errorf("miss wait = %v, want %v", ms.WindowMS, p.SpinUpMS)
		}
	}
	// The per-period actual energies sum (with the periods the policy
	// left alone) to no more than the run total; sanity-check the
	// attribution is in Joules of this run's scale.
	var attributed float64
	for _, d := range downs {
		attributed += d.ActualJ
	}
	if attributed <= 0 || attributed >= res.EnergyJ {
		t.Errorf("attributed energy %v outside (0, total %v)", attributed, res.EnergyJ)
	}
}

// TestEventsMatchCollector is the acceptance cross-check: spin-up
// misprediction counts (and fault lifecycle counts) derived from the
// event log alone must equal the metrics collector's counters.
func TestEventsMatchCollector(t *testing.T) {
	p := disk.DefaultParams()
	spec, err := faults.ParseSpec("moderate")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		nDisks := 1 + r.Intn(3)
		tr := randomBatchTrace(r, nDisks)
		plan, err := faults.New(seed, nDisks, spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []string{"tpm", "drpm", "itpm"} {
			coll := obs.New()
			log := events.NewLog(1 << 16)
			cfg := sim.Config{
				Disk: p, Policy: diffPolicy(pol, p),
				PowerCallOverheadMS: sim.DefaultPowerCallOverheadMS,
				Obs:                 coll, Events: log, Faults: plan,
			}
			if _, err := sim.Run(tr, cfg); err != nil {
				t.Fatal(err)
			}
			evs := log.Events()
			od, inf := events.MissCounts(evs)
			wantOD, wantInf := coll.Value(obs.MissOnDemand), coll.Value(obs.MissInflight)
			if int64(od) != wantOD || int64(inf) != wantInf {
				t.Errorf("seed %d %s: event misses %d/%d, collector %d/%d", seed, pol, od, inf, wantOD, wantInf)
			}
			faultEvs := events.CountByDetail(evs, events.KindFault)
			for k := obs.FaultSpinUpFail; k <= obs.FaultDegraded; k++ {
				if got, want := int64(faultEvs[k.Label()]), coll.Value(k); got != want {
					t.Errorf("seed %d %s: fault %s events %d, collector %d", seed, pol, k.Label(), got, want)
				}
			}
			// Decision events match the power-op counters too.
			byKind := events.CountByKind(evs)
			for kind, op := range map[string]obs.Metric{
				events.KindSpinDown: obs.OpSpinDown,
				events.KindSpinUp:   obs.OpSpinUp,
				events.KindRPMShift: obs.OpSetRPM,
			} {
				if got, want := int64(byKind[kind]), coll.Value(op); got != want {
					t.Errorf("seed %d %s: %s events %d, collector %d", seed, pol, kind, got, want)
				}
			}
		}
	}
}

// TestEventsBailoutReasons asserts the batched executor records why
// it dropped an event to the general path: a policy decision point
// inside a steady run, and a disk still in transition at run entry
// (here: an embedded spin-down right before a steady stretch).
func TestEventsBailoutReasons(t *testing.T) {
	p := disk.DefaultParams()

	t.Run("policy_decision", func(t *testing.T) {
		tr := &trace.Trace{Program: "bail", NumDisks: 1}
		arrival := 0.0
		add := func(gap float64) {
			arrival += gap
			tr.Events = append(tr.Events, trace.Event{
				Kind: trace.EvRequest, GapMS: gap,
				Req: trace.Request{ArrivalMS: arrival, Disk: 0, Bytes: 65536},
			})
		}
		for i := 0; i < 10; i++ {
			add(2)
		}
		add(30000) // TPM decision territory, inside the same compiled run
		for i := 0; i < 10; i++ {
			add(2)
		}
		comp := trace.Compile(tr)
		if len(comp.Runs) != 1 {
			t.Fatalf("compiled to %d runs, want 1", len(comp.Runs))
		}
		log := events.NewLog(0)
		cfg := sim.Config{Disk: p, Policy: policy.NewTPM(p), Events: log, Compiled: comp}
		if _, err := sim.Run(tr, cfg); err != nil {
			t.Fatal(err)
		}
		bails := events.CountByDetail(log.Events(), events.KindBailout)
		if bails["policy_decision"] == 0 {
			t.Errorf("no policy_decision bail-out recorded: %v", bails)
		}
		if bails["unknown"] != 0 {
			t.Errorf("unclassified bail-outs: %v", bails)
		}
	})

	t.Run("disk_transition", func(t *testing.T) {
		tr := &trace.Trace{Program: "bail", NumDisks: 1}
		arrival := 0.0
		for i := 0; i < 10; i++ {
			arrival += 2
			tr.Events = append(tr.Events, trace.Event{
				Kind: trace.EvRequest, GapMS: 2,
				Req: trace.Request{ArrivalMS: arrival, Disk: 0, Bytes: 65536},
			})
		}
		// Compiler-inserted spin-down: the next steady run opens with
		// the disk in standby, forcing the first request through the
		// general path (on-demand spin-up).
		tr.Events = append(tr.Events, trace.Event{
			Kind: trace.EvPowerOp, GapMS: 0,
			Op: trace.PowerOp{Kind: trace.OpSpinDown, Disk: 0},
		})
		for i := 0; i < 10; i++ {
			arrival += 2
			tr.Events = append(tr.Events, trace.Event{
				Kind: trace.EvRequest, GapMS: 2,
				Req: trace.Request{ArrivalMS: arrival, Disk: 0, Bytes: 65536},
			})
		}
		comp := trace.Compile(tr)
		if len(comp.Runs) == 0 {
			t.Fatal("trace compiled to zero runs")
		}
		log := events.NewLog(0)
		cfg := sim.Config{Disk: p, Events: log, Compiled: comp}
		if _, err := sim.Run(tr, cfg); err != nil {
			t.Fatal(err)
		}
		bails := events.CountByDetail(log.Events(), events.KindBailout)
		if bails["disk_transition"] == 0 {
			t.Errorf("no disk_transition bail-out recorded: %v", bails)
		}
		if bails["unknown"] != 0 {
			t.Errorf("unclassified bail-outs: %v", bails)
		}
	})
}

// TestEventsFaultBailoutReasons: when the batched executor hands a
// request to the general path because of a fault-plan hit, the
// bailout's reason names the fault the general path then reports for
// that request, on the same disk at the same time.
func TestEventsFaultBailoutReasons(t *testing.T) {
	p := disk.DefaultParams()
	heavy, _ := faults.Preset("heavy")
	plan, err := faults.New(5, 1, heavy)
	if err != nil {
		t.Fatal(err)
	}
	tr := idleTrace(20000, 2)
	log := events.NewLog(0)
	cfg := sim.Config{Disk: p, Faults: plan, Events: log, Compiled: trace.Compile(tr)}
	if _, err := sim.Run(tr, cfg); err != nil {
		t.Fatal(err)
	}
	type at struct {
		disk int
		tMS  float64
	}
	faulted := map[string]map[at]bool{}
	for _, e := range log.Events() {
		if e.Kind == events.KindFault {
			if faulted[e.Detail] == nil {
				faulted[e.Detail] = map[at]bool{}
			}
			faulted[e.Detail][at{e.Disk, e.TMS}] = true
		}
	}
	seen := map[string]int{}
	for _, e := range log.Events() {
		if e.Kind != events.KindBailout {
			continue
		}
		fault := map[string]string{"fault_remap": obs.FaultRemap.Label(), "fault_degraded": obs.FaultDegraded.Label()}[e.Detail]
		if fault == "" {
			continue
		}
		seen[e.Detail]++
		if !faulted[fault][at{e.Disk, e.TMS}] {
			t.Errorf("%s bailout at disk %d t=%v has no %s fault event", e.Detail, e.Disk, e.TMS, fault)
		}
	}
	if seen["fault_remap"] == 0 || seen["fault_degraded"] == 0 {
		t.Fatalf("fault bailouts = %v, want both kinds", seen)
	}
}

// TestEventsResultUnperturbed: attaching a log must not change the
// Result on the general path either (the batched path is covered by
// TestBatchDifferential).
func TestEventsResultUnperturbed(t *testing.T) {
	p := disk.DefaultParams()
	tr := idleTrace(50, 4000)
	for _, pol := range []string{"base", "tpm", "itpm", "drpm", "idrpm"} {
		plain := sim.Config{Disk: p, Policy: diffPolicy(pol, p), DisableBatch: true}
		traced := sim.Config{Disk: p, Policy: diffPolicy(pol, p), DisableBatch: true, Events: events.NewLog(0)}
		a, err := sim.Run(tr, plain)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sim.Run(tr, traced)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("policy %s: event tracing perturbed the result", pol)
		}
	}
}

// TestEventsOpenLoop smoke-checks the open-loop executor's event
// wiring: decisions are labelled with the /open scheme suffix.
func TestEventsOpenLoop(t *testing.T) {
	p := disk.DefaultParams()
	tr := idleTrace(5, 20000)
	log := events.NewLog(0)
	cfg := sim.Config{Disk: p, Policy: policy.NewTPM(p), Events: log}
	if _, err := sim.RunOpenLoop(tr, cfg); err != nil {
		t.Fatal(err)
	}
	evs := log.Events()
	if len(evs) == 0 {
		t.Fatal("open-loop run emitted no events")
	}
	for _, e := range evs {
		if e.Policy != "TPM/open" {
			t.Fatalf("open-loop event policy = %q, want TPM/open", e.Policy)
		}
	}
}

// TestRunAllocsAttachedEvents extends the alloc guard: a pre-warmed
// event log must add no per-request allocations, so runs of different
// lengths allocate identically with a log attached.
func TestRunAllocsAttachedEvents(t *testing.T) {
	log := events.NewLog(1 << 16)
	measure := func(nReqs int) float64 {
		tr := hotTrace(4, nReqs, 2.0)
		cfg := sim.Config{Disk: disk.DefaultParams(), Policy: policy.NewTPM(disk.DefaultParams()), Events: log}
		run := func() {
			if _, err := sim.Run(tr, cfg); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm up outside the measured region
		return testing.AllocsPerRun(20, run)
	}
	small := measure(500)
	large := measure(4000)
	if large != small {
		t.Errorf("allocs grew with trace length under an attached event log: %.0f (500 reqs) vs %.0f (4000 reqs)", small, large)
	}
}
