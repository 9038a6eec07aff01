package sim

import (
	"errors"
	"math"
	"testing"

	"sdpm/internal/disk"
	"sdpm/internal/faults"
	"sdpm/internal/trace"
)

func plan(t *testing.T, seed int64, nd int, cfg faults.Config) *faults.Plan {
	t.Helper()
	p, err := faults.New(seed, nd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestZeroPlanMatchesNoPlan: attaching a plan whose configuration
// injects nothing must leave every figure bit-identical to running
// with no plan at all — the fault-free baseline is not perturbed.
func TestZeroPlanMatchesNoPlan(t *testing.T) {
	p := disk.DefaultParams()
	tr := mkTrace(2,
		op(0, 0, trace.OpSpinDown, 0),
		req(20000, 0, 65536),
		req(10, 1, 32768),
		req(500, 0, 65536))
	clean, err := Run(tr, Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := Run(tr, Config{Disk: p, Faults: plan(t, 1, 2, faults.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	if clean.EnergyJ != faulted.EnergyJ || clean.ExecMS != faulted.ExecMS || clean.TotalWaitMS != faulted.TotalWaitMS {
		t.Fatalf("zero-config plan changed the run: (%v,%v,%v) vs (%v,%v,%v)",
			clean.EnergyJ, clean.ExecMS, clean.TotalWaitMS,
			faulted.EnergyJ, faulted.ExecMS, faulted.TotalWaitMS)
	}
}

// TestOnDemandCascadeEnergy: at a 100% spin-up failure probability the
// on-demand path is forced to succeed after MaxRetries failures, and
// the cascade's time and energy are charged exactly — attempts at
// spin-up cost, backoffs at standby power.
func TestOnDemandCascadeEnergy(t *testing.T) {
	p := disk.DefaultParams()
	fc := faults.Config{SpinUpFailProb: 1, MaxRetries: 2, RetryBackoffMS: 100}
	tr := mkTrace(1,
		op(0, 0, trace.OpSpinDown, 0),
		req(20000, 0, 65536))
	res, err := Run(tr, Config{Disk: p, Faults: plan(t, 7, 1, fc)})
	if err != nil {
		t.Fatal(err)
	}
	// Three attempts (two drawn failures, then the forced success),
	// separated by backoffs of 100 and 200 ms.
	const backoffMS = 100 + 200
	attempts := 3.0
	cascadeMS := attempts*p.SpinUpMS + backoffMS
	cascadeJ := attempts*p.SpinUpJ + p.StandbyW*backoffMS/1e3
	svc := p.ServiceTimeMS(p.MaxRPM, 65536)
	wantExec := 20000 + cascadeMS + svc
	if math.Abs(res.ExecMS-wantExec) > 1e-6 {
		t.Errorf("ExecMS = %g, want %g", res.ExecMS, wantExec)
	}
	wantE := p.SpinDownJ + p.StandbyW*(20000-p.SpinDownMS)/1e3 + cascadeJ + p.ActiveW*svc/1e3
	if math.Abs(res.EnergyJ-wantE) > 1e-6 {
		t.Errorf("EnergyJ = %g, want %g", res.EnergyJ, wantE)
	}
	st := res.Disks[0]
	if st.SpinUpFailures != 2 || st.SpinUpRetries != 2 || st.SpinUpTimeouts != 0 || st.Fallbacks != 0 {
		t.Errorf("counters = %d failures, %d retries, %d timeouts, %d fallbacks",
			st.SpinUpFailures, st.SpinUpRetries, st.SpinUpTimeouts, st.Fallbacks)
	}
}

// TestPreActivationGiveUpFallsBack: a pre-activation spin-up that
// exhausts its retries leaves the disk in standby; the next request
// counts a fallback and succeeds on demand. All cascade energy is
// conserved.
func TestPreActivationGiveUpFallsBack(t *testing.T) {
	p := disk.DefaultParams()
	fc := faults.Config{SpinUpFailProb: 1, MaxRetries: 1, RetryBackoffMS: 500}
	tr := mkTrace(1,
		op(0, 0, trace.OpSpinDown, 0),
		op(20000, 0, trace.OpSpinUp, 0),
		req(30000, 0, 65536))
	res, err := Run(tr, Config{Disk: p, Faults: plan(t, 7, 1, fc)})
	if err != nil {
		t.Fatal(err)
	}
	// Both cascades run two attempts split by one 500 ms backoff: the
	// pre-activation one fails both draws and gives up; the on-demand
	// one fails once and is then forced to succeed.
	cascadeMS := 2*p.SpinUpMS + 500
	cascadeJ := 2*p.SpinUpJ + p.StandbyW*500/1e3
	svc := p.ServiceTimeMS(p.MaxRPM, 65536)
	wantExec := 50000 + cascadeMS + svc
	if math.Abs(res.ExecMS-wantExec) > 1e-6 {
		t.Errorf("ExecMS = %g, want %g", res.ExecMS, wantExec)
	}
	standbyMS := (20000 - p.SpinDownMS) + (50000 - (20000 + cascadeMS))
	wantE := p.SpinDownJ + p.StandbyW*standbyMS/1e3 + 2*cascadeJ + p.ActiveW*svc/1e3
	if math.Abs(res.EnergyJ-wantE) > 1e-6 {
		t.Errorf("EnergyJ = %g, want %g", res.EnergyJ, wantE)
	}
	st := res.Disks[0]
	if st.SpinUps != 2 || st.SpinUpFailures != 3 || st.SpinUpRetries != 2 || st.Fallbacks != 1 {
		t.Errorf("counters = %d spin-ups, %d failures, %d retries, %d fallbacks",
			st.SpinUps, st.SpinUpFailures, st.SpinUpRetries, st.Fallbacks)
	}
}

// TestSpinUpTimeoutCapsCascade: a pre-activation cascade whose next
// retry would blow the timeout gives up early and counts a timeout.
func TestSpinUpTimeoutCapsCascade(t *testing.T) {
	p := disk.DefaultParams()
	// First attempt (10900 ms) + backoff (300) + second attempt would
	// exceed 12000 ms, so the cascade times out after one attempt.
	fc := faults.Config{SpinUpFailProb: 1, MaxRetries: 5, RetryBackoffMS: 300, SpinUpTimeoutMS: 12000}
	tr := mkTrace(1,
		op(0, 0, trace.OpSpinDown, 0),
		op(20000, 0, trace.OpSpinUp, 0),
		req(40000, 0, 65536))
	res, err := Run(tr, Config{Disk: p, Faults: plan(t, 7, 1, fc)})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Disks[0]
	if st.SpinUpTimeouts != 1 || st.Fallbacks != 1 {
		t.Errorf("timeouts = %d, fallbacks = %d; want 1, 1", st.SpinUpTimeouts, st.Fallbacks)
	}
	// The request still completed (no-deadlock guarantee).
	if res.Requests != 1 {
		t.Errorf("requests = %d", res.Requests)
	}
	total := st.ActiveMS + st.IdleMS + st.StandbyMS + st.TransitionMS
	if math.Abs(total-res.ExecMS) > 1e-6 {
		t.Errorf("time components %g != exec %g", total, res.ExecMS)
	}
}

// TestRemapPenaltyAvgSeek: under the average-seek model a remapped
// block costs exactly the configured flat penalty.
func TestRemapPenaltyAvgSeek(t *testing.T) {
	p := disk.DefaultParams()
	clean := NewMachine(1, p)
	end0, err := clean.ServiceBlock(0, 0, 65536, 5)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(1, p)
	m.AttachFaults(plan(t, 7, 1, faults.Config{BadSectorFrac: 1, RemapPenaltyMS: 4}))
	end1, err := m.ServiceBlock(0, 0, 65536, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((end1-end0)-4) > 1e-9 {
		t.Errorf("remap penalty = %g ms, want 4", end1-end0)
	}
	stats, _ := m.Finish(end1)
	if stats[0].RemapHits != 1 {
		t.Errorf("remap hits = %d", stats[0].RemapHits)
	}
}

// TestRemapDistanceSeekTravelsToSpareArea: under the distance-aware
// model the head genuinely seeks to the spare area at the end of the
// platter.
func TestRemapDistanceSeekTravelsToSpareArea(t *testing.T) {
	p := disk.DefaultParams()
	pl := plan(t, 7, 1, faults.Config{BadSectorFrac: 1})
	maxBlocks := p.CapacityBlocks()
	m := NewMachine(1, p)
	m.EnableDistanceSeek(maxBlocks)
	m.AttachFaults(pl)
	end, err := m.ServiceBlock(0, 0, 65536, 0)
	if err != nil {
		t.Fatal(err)
	}
	target := pl.RemapTarget(0, maxBlocks)
	want := p.ServiceTimeSeekMS(p.MaxRPM, 65536, p.SeekTimeMS(target, maxBlocks))
	if math.Abs(end-want) > 1e-9 {
		t.Errorf("end = %g, want %g (seek to spare block %d)", end, want, target)
	}
}

// TestDegradedWindowStretchesTransfer: inside a degradation window the
// media-transfer component is multiplied by the slowdown factor.
func TestDegradedWindowStretchesTransfer(t *testing.T) {
	p := disk.DefaultParams()
	fc := faults.Config{DegradedProb: 1, DegradedPeriodMS: 1e6, DegradedDurMS: 1e6, DegradedFactor: 3}
	m := NewMachine(1, p)
	m.AttachFaults(plan(t, 7, 1, fc))
	end, err := m.ServiceBlock(0, 0, 65536, -1)
	if err != nil {
		t.Fatal(err)
	}
	want := p.ServiceTimeMS(p.MaxRPM, 65536) + 2*p.TransferTimeMS(p.MaxRPM, 65536)
	if math.Abs(end-want) > 1e-9 {
		t.Errorf("degraded service = %g, want %g", end, want)
	}
	stats, _ := m.Finish(end)
	if stats[0].DegradedHits != 1 || math.Abs(stats[0].DegradedExtraMS-2*p.TransferTimeMS(p.MaxRPM, 65536)) > 1e-9 {
		t.Errorf("degraded hits = %d, extra = %g", stats[0].DegradedHits, stats[0].DegradedExtraMS)
	}
}

// TestNotSpinningErrorTyped: the invariant guard reports a typed error
// instead of panicking when a disk is in an unservable state.
func TestNotSpinningErrorTyped(t *testing.T) {
	p := disk.DefaultParams()
	m := NewMachine(1, p)
	// Corrupt the state machine: an already-expired spin-down that was
	// never resolved cannot reach the service path legitimately.
	m.disks[0].status = StDown
	m.disks[0].statusUntil = 0
	_, err := m.ServiceBlock(0, 0, 65536, -1)
	var nse *NotSpinningError
	if !errors.As(err, &nse) {
		t.Fatalf("err = %v, want *NotSpinningError", err)
	}
	if nse.Disk != 0 || nse.Status != StDown {
		t.Errorf("error payload = disk %d status %v", nse.Disk, nse.Status)
	}
}

// corruptPolicy breaks a disk's state machine right before a request
// is serviced, forcing the invariant guard in ServiceBlock.
type corruptPolicy struct{}

func (corruptPolicy) Name() string { return "corrupt" }
func (corruptPolicy) BeforeService(m *Machine, d int, t float64) {
	m.advance(d, t)
	m.disks[d].status = StDown
	m.disks[d].statusUntil = t
}
func (corruptPolicy) AfterService(*Machine, int, float64, float64) {}
func (corruptPolicy) Finish(*Machine, float64)                     {}

// TestNotSpinningErrorThroughRun: the typed error propagates out of
// the public closed-loop entry point instead of crashing the run.
func TestNotSpinningErrorThroughRun(t *testing.T) {
	p := disk.DefaultParams()
	tr := mkTrace(1, req(10, 0, 65536))
	_, err := Run(tr, Config{Disk: p, Policy: corruptPolicy{}, IgnorePowerOps: true})
	var nse *NotSpinningError
	if !errors.As(err, &nse) {
		t.Fatalf("Run returned %v, want *NotSpinningError", err)
	}
}

// TestFaultPlanDiskMismatch: a plan derived for fewer disks than the
// trace uses is rejected up front.
func TestFaultPlanDiskMismatch(t *testing.T) {
	p := disk.DefaultParams()
	tr := mkTrace(4, req(10, 3, 65536))
	pl := plan(t, 1, 2, faults.Config{SpinUpFailProb: 0.5})
	if _, err := Run(tr, Config{Disk: p, Faults: pl}); err == nil {
		t.Fatal("undersized fault plan accepted")
	}
	if _, err := RunOpenLoop(tr, Config{Disk: p, Faults: pl, Policy: corruptPolicy{}}); err == nil {
		t.Fatal("undersized fault plan accepted by open loop")
	}
}

// TestFaultDeterminism: two runs of the same trace under the same
// fault plan produce bit-identical results.
func TestFaultDeterminism(t *testing.T) {
	p := disk.DefaultParams()
	fc, _ := faults.Preset("heavy")
	tr := mkTrace(2,
		op(0, 0, trace.OpSpinDown, 0),
		req(20000, 0, 65536),
		req(100, 1, 32768),
		op(10, 1, trace.OpSpinDown, 0),
		req(30000, 1, 65536))
	a, err := Run(tr, Config{Disk: p, Faults: plan(t, 42, 2, fc)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tr, Config{Disk: p, Faults: plan(t, 42, 2, fc)})
	if err != nil {
		t.Fatal(err)
	}
	if a.EnergyJ != b.EnergyJ || a.ExecMS != b.ExecMS || a.TotalWaitMS != b.TotalWaitMS {
		t.Fatalf("identical plans diverged: (%v,%v) vs (%v,%v)", a.EnergyJ, a.ExecMS, b.EnergyJ, b.ExecMS)
	}
	// Per-disk time components still account for the whole run.
	for d, st := range a.Disks {
		total := st.ActiveMS + st.IdleMS + st.StandbyMS + st.TransitionMS
		if math.Abs(total-a.ExecMS) > 1e-6 {
			t.Errorf("disk %d time sum %g != exec %g under faults", d, total, a.ExecMS)
		}
	}
}
