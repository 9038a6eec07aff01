package sim

import (
	"math"
	"testing"

	"sdpm/internal/disk"
	"sdpm/internal/trace"
)

func req(gap float64, d int, bytes int64) trace.Event {
	return trace.Event{Kind: trace.EvRequest, GapMS: gap, Req: trace.Request{Disk: int32(d), Bytes: bytes, Kind: trace.Read}}
}

func op(gap float64, d int, k trace.OpKind, rpm int) trace.Event {
	return trace.Event{Kind: trace.EvPowerOp, GapMS: gap, Op: trace.PowerOp{Disk: int32(d), Kind: k, RPM: int32(rpm)}}
}

func mkTrace(nd int, evs ...trace.Event) *trace.Trace {
	// Fill nominal arrivals to keep Validate happy.
	t := &trace.Trace{Program: "t", NumDisks: nd, Events: evs}
	arr := 0.0
	for i := range t.Events {
		if t.Events[i].Kind == trace.EvRequest {
			arr += t.Events[i].GapMS
			t.Events[i].Req.ArrivalMS = arr
		}
	}
	return t
}

func TestBaseEnergyAnalytic(t *testing.T) {
	p := disk.DefaultParams()
	// One request of 64KB to disk 0 after 10ms of compute, 2 disks.
	tr := mkTrace(2, req(10, 0, 65536))
	res, err := Run(tr, Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	svc := p.ServiceTimeMS(p.MaxRPM, 65536)
	wantExec := 10 + svc
	if math.Abs(res.ExecMS-wantExec) > 1e-9 {
		t.Errorf("ExecMS = %g, want %g", res.ExecMS, wantExec)
	}
	// Disk 0: idle 10ms + active svc. Disk 1: idle the whole run.
	want := p.IdleW*10/1e3 + p.ActiveW*svc/1e3 + p.IdleW*wantExec/1e3
	if math.Abs(res.EnergyJ-want) > 1e-9 {
		t.Errorf("EnergyJ = %g, want %g", res.EnergyJ, want)
	}
	if res.Requests != 1 || res.TotalWaitMS != 0 {
		t.Errorf("requests=%d wait=%g", res.Requests, res.TotalWaitMS)
	}
}

func TestTimeAccountingIdentity(t *testing.T) {
	p := disk.DefaultParams()
	tr := mkTrace(3,
		req(5, 0, 65536), req(3, 1, 65536), req(7, 2, 32768),
		req(2, 0, 65536), req(4, 1, 16384))
	res, err := Run(tr, Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	for d, st := range res.Disks {
		total := st.ActiveMS + st.IdleMS + st.StandbyMS + st.TransitionMS
		if math.Abs(total-res.ExecMS) > 1e-6 {
			t.Errorf("disk %d time sum %g != exec %g", d, total, res.ExecMS)
		}
	}
}

func TestOnDemandSpinUpPaysFullDelay(t *testing.T) {
	p := disk.DefaultParams()
	// Spin disk 0 down, then access it long after the spin-down
	// completed: the request must wait the full spin-up time.
	tr := mkTrace(1,
		op(0, 0, trace.OpSpinDown, 0),
		req(20000, 0, 65536),
	)
	res, err := Run(tr, Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	svc := p.ServiceTimeMS(p.MaxRPM, 65536)
	wantExec := DefaultPowerCallOverheadMS*0 + 20000 + p.SpinUpMS + svc
	// Config used zero overhead default? We passed no overhead: 0.
	if math.Abs(res.ExecMS-wantExec) > 1e-6 {
		t.Errorf("ExecMS = %g, want %g", res.ExecMS, wantExec)
	}
	st := res.Disks[0]
	if st.SpinDowns != 1 || st.SpinUps != 1 {
		t.Errorf("spin downs/ups = %d/%d", st.SpinDowns, st.SpinUps)
	}
	if math.Abs(st.WaitMS-p.SpinUpMS) > 1e-9 {
		t.Errorf("WaitMS = %g, want %g", st.WaitMS, p.SpinUpMS)
	}
	// Energy: spin-down J + standby + spin-up J + active.
	standbyMS := 20000 - p.SpinDownMS
	wantE := p.SpinDownJ + p.StandbyW*standbyMS/1e3 + p.SpinUpJ + p.ActiveW*svc/1e3
	if math.Abs(res.EnergyJ-wantE) > 1e-6 {
		t.Errorf("EnergyJ = %g, want %g", res.EnergyJ, wantE)
	}
}

func TestRequestDuringSpinDownWaitsForBoth(t *testing.T) {
	p := disk.DefaultParams()
	// Request arrives 500ms after spin-down starts (down takes 1500ms):
	// it must wait for down completion + full spin-up.
	tr := mkTrace(1,
		op(0, 0, trace.OpSpinDown, 0),
		req(500, 0, 65536),
	)
	res, err := Run(tr, Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	svc := p.ServiceTimeMS(p.MaxRPM, 65536)
	wantExec := 500 + (p.SpinDownMS - 500) + p.SpinUpMS + svc
	if math.Abs(res.ExecMS-wantExec) > 1e-6 {
		t.Errorf("ExecMS = %g, want %g", res.ExecMS, wantExec)
	}
}

func TestSetRPMServiceSlowdown(t *testing.T) {
	p := disk.DefaultParams()
	// Drop to 3000 RPM; request arrives after the shift completes.
	tr := mkTrace(1,
		op(0, 0, trace.OpSetRPM, 3000),
		req(1000, 0, 65536),
	)
	res, err := Run(tr, Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	svcSlow := p.ServiceTimeMS(3000, 65536)
	wantExec := 1000 + svcSlow
	if math.Abs(res.ExecMS-wantExec) > 1e-6 {
		t.Errorf("ExecMS = %g, want %g", res.ExecMS, wantExec)
	}
	if res.Disks[0].RPMShifts != 1 {
		t.Errorf("shifts = %d", res.Disks[0].RPMShifts)
	}
	// Energy: shift + low idle + active at low speed.
	shiftMS := p.TransitionTimeMS(p.MaxRPM, 3000)
	wantE := p.TransitionEnergyJ(p.MaxRPM, 3000) +
		p.IdlePowerAt(3000)*(1000-shiftMS)/1e3 +
		p.ActivePowerAt(3000)*svcSlow/1e3
	if math.Abs(res.EnergyJ-wantE) > 1e-6 {
		t.Errorf("EnergyJ = %g, want %g", res.EnergyJ, wantE)
	}
}

func TestRequestDuringShiftWaits(t *testing.T) {
	p := disk.DefaultParams()
	shiftMS := p.TransitionTimeMS(p.MaxRPM, 3000) // 30ms
	tr := mkTrace(1,
		op(0, 0, trace.OpSetRPM, 3000),
		req(shiftMS/2, 0, 65536),
	)
	res, err := Run(tr, Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	svcSlow := p.ServiceTimeMS(3000, 65536)
	wantExec := shiftMS + svcSlow
	if math.Abs(res.ExecMS-wantExec) > 1e-6 {
		t.Errorf("ExecMS = %g, want %g", res.ExecMS, wantExec)
	}
	if math.Abs(res.Disks[0].WaitMS-shiftMS/2) > 1e-9 {
		t.Errorf("WaitMS = %g", res.Disks[0].WaitMS)
	}
}

func TestPreActivationHidesSpinUp(t *testing.T) {
	p := disk.DefaultParams()
	// Spin down at t=0; spin up exactly SpinUpMS before the access:
	// no wait at all.
	idle := p.TPMBreakEvenMS() * 2
	tr := mkTrace(1,
		op(0, 0, trace.OpSpinDown, 0),
		op(idle-p.SpinUpMS, 0, trace.OpSpinUp, 0),
		req(p.SpinUpMS, 0, 65536),
	)
	res, err := Run(tr, Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWaitMS > 1e-9 {
		t.Errorf("pre-activated access waited %g ms", res.TotalWaitMS)
	}
	// And it must save energy versus idling for the same duration.
	base := mkTrace(1, req(idle, 0, 65536))
	bres, err := Run(base, Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyJ >= bres.EnergyJ {
		t.Errorf("TPM dip saved nothing: %g >= %g", res.EnergyJ, bres.EnergyJ)
	}
}

func TestRetroactiveOracleDipNoPenalty(t *testing.T) {
	p := disk.DefaultParams()
	// An oracle-style policy that, at each request issue, dips the
	// just-ended idle period to the optimal RPM level retroactively.
	pol := &testOraclePolicy{p: p}
	tr := mkTrace(1, req(73, 0, 65536), req(73, 0, 65536), req(73, 0, 65536))
	res, err := Run(tr, Config{Disk: p, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := Run(tr, Config{Disk: p})
	if math.Abs(res.ExecMS-base.ExecMS) > 1e-9 {
		t.Errorf("oracle changed exec time: %g vs %g", res.ExecMS, base.ExecMS)
	}
	if res.TotalWaitMS > 1e-9 {
		t.Errorf("oracle caused waiting: %g", res.TotalWaitMS)
	}
	if res.EnergyJ >= base.EnergyJ {
		t.Errorf("oracle saved nothing: %g >= %g", res.EnergyJ, base.EnergyJ)
	}
	if res.Scheme != "test-oracle" {
		t.Errorf("scheme = %q", res.Scheme)
	}
}

type testOraclePolicy struct{ p disk.Params }

func (*testOraclePolicy) Name() string { return "test-oracle" }
func (tp *testOraclePolicy) BeforeService(m *Machine, d int, t float64) {
	start := m.IdleFrom(d)
	idle := t - start
	if rpm, _ := tp.p.BestRPMForIdle(idle); rpm != tp.p.MaxRPM {
		m.SetRPMAt(d, start, rpm)
		m.SetRPMAt(d, t-tp.p.TransitionTimeMS(rpm, tp.p.MaxRPM), tp.p.MaxRPM)
	}
}
func (*testOraclePolicy) AfterService(*Machine, int, float64, float64) {}
func (*testOraclePolicy) Finish(*Machine, float64)                     {}

func TestIdlePeriodsRecorded(t *testing.T) {
	p := disk.DefaultParams()
	tr := mkTrace(2, req(10, 0, 65536), req(5, 1, 65536), req(5, 0, 65536))
	res, err := Run(tr, Config{Disk: p, RecordIdles: true})
	if err != nil {
		t.Fatal(err)
	}
	svc := p.ServiceTimeMS(p.MaxRPM, 65536)
	// Disk 0: [0,10), then a gap of 5+svc+5 after its first
	// completion; its last request ends exactly at program end, so
	// its trailing idle record has zero length.
	d0 := res.Idles[0]
	if len(d0) != 3 {
		t.Fatalf("disk0 idles = %v", d0)
	}
	if d0[2].LenMS != 0 {
		t.Errorf("trailing idle = %g, want 0", d0[2].LenMS)
	}
	if math.Abs(d0[0].LenMS-10) > 1e-9 {
		t.Errorf("first idle = %g", d0[0].LenMS)
	}
	if math.Abs(d0[1].LenMS-(5+svc+5)) > 1e-9 {
		t.Errorf("second idle = %g", d0[1].LenMS)
	}
	// Disk 1: one leading idle, one trailing of length 5+svc.
	d1 := res.Idles[1]
	if len(d1) != 2 {
		t.Fatalf("disk1 idles = %v", d1)
	}
	if math.Abs(d1[1].LenMS-(5+svc)) > 1e-9 {
		t.Errorf("disk1 trailing idle = %g", d1[1].LenMS)
	}
}

// nopPolicy manages nothing: a run under it differs from a
// policy-free run only in dropping the trace's power ops.
type nopPolicy struct{}

func (nopPolicy) Name() string                                 { return "nop" }
func (nopPolicy) BeforeService(*Machine, int, float64)         {}
func (nopPolicy) AfterService(*Machine, int, float64, float64) {}
func (nopPolicy) Finish(*Machine, float64)                     {}

// A run with a policy drops the trace's power ops.
func TestIgnorePowerOps(t *testing.T) {
	p := disk.DefaultParams()
	tr := mkTrace(1,
		op(0, 0, trace.OpSetRPM, 3000),
		req(1000, 0, 65536),
	)
	res, err := Run(tr, Config{Disk: p, Policy: nopPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Disks[0].RPMShifts != 0 || res.PowerOps != 0 {
		t.Error("ops not ignored")
	}
	svc := p.ServiceTimeMS(p.MaxRPM, 65536)
	if math.Abs(res.ExecMS-(1000+svc)) > 1e-9 {
		t.Errorf("ExecMS = %g", res.ExecMS)
	}
}

func TestPowerCallOverheadAdvancesClock(t *testing.T) {
	p := disk.DefaultParams()
	tr := mkTrace(1, op(0, 0, trace.OpSetRPM, 13800), req(1000, 0, 65536))
	res, err := Run(tr, Config{Disk: p, PowerCallOverheadMS: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	svc := p.ServiceTimeMS(13800, 65536)
	want := 0.5 + 1000 + svc
	if math.Abs(res.ExecMS-want) > 1e-9 {
		t.Errorf("ExecMS = %g, want %g", res.ExecMS, want)
	}
	if res.PowerOps != 1 {
		t.Errorf("PowerOps = %d", res.PowerOps)
	}
}

func TestRedundantOpsAreNoOps(t *testing.T) {
	p := disk.DefaultParams()
	tr := mkTrace(1,
		op(0, 0, trace.OpSpinUp, 0),     // already spinning
		op(1, 0, trace.OpSetRPM, 15000), // already at max
		op(1, 0, trace.OpSpinDown, 0),   // begins down
		op(1, 0, trace.OpSpinDown, 0),   // already heading down
		req(30000, 0, 65536),
	)
	res, err := Run(tr, Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Disks[0]
	if st.SpinDowns != 1 || st.SpinUps != 1 || st.RPMShifts != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSetRPMOnStandbyIsNoOp(t *testing.T) {
	p := disk.DefaultParams()
	tr := mkTrace(1,
		op(0, 0, trace.OpSpinDown, 0),
		op(5000, 0, trace.OpSetRPM, 3000),
		req(25000, 0, 65536),
	)
	res, err := Run(tr, Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	if res.Disks[0].RPMShifts != 0 {
		t.Error("set_rpm on standby disk shifted")
	}
}

// TestIdlesRecordedOnRequest: a run records idle periods only under
// RecordIdles or Audit, in both loops.
func TestIdlesRecordedOnRequest(t *testing.T) {
	p := disk.DefaultParams()
	tr := mkTrace(2, req(10, 0, 65536), req(5, 1, 65536), req(5, 0, 65536))
	for _, open := range []bool{false, true} {
		for _, cfg := range []Config{{}, {RecordIdles: true}, {Audit: true}} {
			cfg.Disk = p
			cfg.Policy = &testOraclePolicy{p: p}
			run := Run
			if open {
				run = RunOpenLoop
			}
			res, err := run(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := cfg.RecordIdles || cfg.Audit; (res.Idles != nil) != want {
				t.Errorf("open=%t RecordIdles=%t Audit=%t: Idles = %v", open, cfg.RecordIdles, cfg.Audit, res.Idles)
			}
		}
	}
}

func TestInvalidConfigsRejected(t *testing.T) {
	p := disk.DefaultParams()
	tr := mkTrace(1, req(1, 0, 512))
	bad := p
	bad.RPMStep = 0
	if _, err := Run(tr, Config{Disk: bad}); err == nil {
		t.Error("bad disk params accepted")
	}
	if _, err := Run(tr, Config{Disk: p, PowerCallOverheadMS: -1}); err == nil {
		t.Error("negative overhead accepted")
	}
	badTr := mkTrace(1, req(1, 5, 512))
	if _, err := Run(badTr, Config{Disk: p}); err == nil {
		t.Error("invalid trace accepted")
	}
	// A negative disk count compiles to an unvalidated form; batched,
	// given that form, or unbatched, Run returns the validation error.
	neg := mkTrace(1, req(1, 0, 512), req(1, 0, 512), req(1, 0, 512), req(1, 0, 512))
	neg.NumDisks = -1
	want := neg.Validate()
	for _, cfg := range []Config{{Disk: p}, {Disk: p, Compiled: trace.Compile(neg)}, {Disk: p, DisableBatch: true}} {
		if _, err := Run(neg, cfg); err == nil || err.Error() != want.Error() {
			t.Errorf("negative disk count: err = %v, want %v", err, want)
		}
	}
}

func TestEnergyNonNegativeAndAdditive(t *testing.T) {
	p := disk.DefaultParams()
	tr := mkTrace(4,
		req(10, 0, 65536), req(10, 1, 65536), req(10, 2, 65536),
		req(10, 3, 65536), req(10, 0, 65536))
	res, err := Run(tr, Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, st := range res.Disks {
		if st.EnergyJ < 0 {
			t.Fatal("negative disk energy")
		}
		sum += st.EnergyJ
	}
	if math.Abs(sum-res.EnergyJ) > 1e-9 {
		t.Errorf("per-disk sum %g != total %g", sum, res.EnergyJ)
	}
}

func TestMachineAccessors(t *testing.T) {
	p := disk.DefaultParams()
	m := NewMachine(2, p)
	if m.NumDisks() != 2 {
		t.Error("NumDisks")
	}
	if m.CurRPM(0) != p.MaxRPM {
		t.Error("initial RPM")
	}
	if m.StatusOf(1) != StSpinning {
		t.Error("initial status")
	}
	if m.IdleFrom(0) != 0 || m.disks[0].accT != 0 {
		t.Error("initial times")
	}
	if m.Params().MaxRPM != p.MaxRPM {
		t.Error("Params")
	}
	for _, s := range []Status{StSpinning, StStandby, StDown, StUp, StShift} {
		if s.String() == "" {
			t.Error("empty status string")
		}
	}
}

func TestDistanceAwareSeek(t *testing.T) {
	p := disk.DefaultParams()
	// Two requests: sequential (head already there) vs far away.
	seq := mkTrace(1, req(10, 0, 65536), req(10, 0, 65536))
	seq.Events[0].Req.Block = 0
	seq.Events[1].Req.Block = 128 // right after the first request's 64KB
	far := mkTrace(1, req(10, 0, 65536), req(10, 0, 65536))
	far.Events[0].Req.Block = 0
	far.Events[1].Req.Block = p.CapacityBlocks() - 1000

	rseq, err := Run(seq, Config{Disk: p, DistanceAwareSeek: true})
	if err != nil {
		t.Fatal(err)
	}
	rfar, err := Run(far, Config{Disk: p, DistanceAwareSeek: true})
	if err != nil {
		t.Fatal(err)
	}
	if rseq.ExecMS >= rfar.ExecMS {
		t.Errorf("sequential %g not faster than far %g", rseq.ExecMS, rfar.ExecMS)
	}
	// The far request pays nearly the full-stroke seek; sequential
	// pays none.
	diff := rfar.ExecMS - rseq.ExecMS
	if diff < p.SeekMaxMS*0.8 || diff > p.SeekMaxMS*1.2 {
		t.Errorf("seek difference %g, want near full stroke %g", diff, p.SeekMaxMS)
	}
	// Without the flag both cost the same (average seek).
	a, _ := Run(seq, Config{Disk: p})
	b, _ := Run(far, Config{Disk: p})
	if math.Abs(a.ExecMS-b.ExecMS) > 1e-9 {
		t.Error("average-seek model depended on distance")
	}
}

func TestSeekCurveCalibration(t *testing.T) {
	// The distance model's random-access average stays near the
	// datasheet average seek time.
	p := disk.DefaultParams()
	maxB := p.CapacityBlocks()
	var sum float64
	const n = 10000
	seed := uint64(12345)
	for i := 0; i < n; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		a := int64(seed % uint64(maxB))
		seed = seed*6364136223846793005 + 1442695040888963407
		b := int64(seed % uint64(maxB))
		d := a - b
		if d < 0 {
			d = -d
		}
		sum += p.SeekTimeMS(d, maxB)
	}
	avg := sum / n
	if math.Abs(avg-p.AvgSeekMS) > 0.5 {
		t.Errorf("random-access mean seek %.2fms, datasheet %.2fms", avg, p.AvgSeekMS)
	}
}

func TestTimelineRecording(t *testing.T) {
	p := disk.DefaultParams()
	tr := mkTrace(2,
		op(0, 0, trace.OpSetRPM, 9000),
		req(100, 0, 65536),
		req(50, 1, 65536),
	)
	res, err := Run(tr, Config{Disk: p, RecordTimeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timelines) != 2 {
		t.Fatalf("timelines = %d", len(res.Timelines))
	}
	for d, segs := range res.Timelines {
		if len(segs) == 0 {
			t.Fatalf("disk %d has empty timeline", d)
		}
		// Segments are contiguous from 0 and energy re-integrates to
		// the reported disk energy.
		var prevEnd float64
		var energy float64
		for i, s := range segs {
			if s.StartMS != prevEnd {
				t.Fatalf("disk %d segment %d starts at %g, previous ended %g", d, i, s.StartMS, prevEnd)
			}
			if s.EndMS <= s.StartMS {
				t.Fatalf("disk %d segment %d empty", d, i)
			}
			energy += s.PowerW * (s.EndMS - s.StartMS) / 1e3
			prevEnd = s.EndMS
		}
		if math.Abs(prevEnd-res.ExecMS) > 1e-6 {
			t.Errorf("disk %d timeline ends at %g, exec %g", d, prevEnd, res.ExecMS)
		}
		if math.Abs(energy-res.Disks[d].EnergyJ) > 1e-9 {
			t.Errorf("disk %d timeline energy %g != stats %g", d, energy, res.Disks[d].EnergyJ)
		}
	}
	// Disk 0's timeline must contain the shift and an active segment.
	var sawShift, sawActive bool
	for _, s := range res.Timelines[0] {
		if s.Stat == StShift {
			sawShift = true
		}
		if s.Active {
			sawActive = true
		}
	}
	if !sawShift || !sawActive {
		t.Errorf("disk 0 timeline missing shift/active: %+v", res.Timelines[0])
	}
	// Without the flag, no timelines.
	res2, _ := Run(tr, Config{Disk: p})
	if res2.Timelines != nil {
		t.Error("timelines recorded without flag")
	}
}

func TestEnergyBreakdownSums(t *testing.T) {
	p := disk.DefaultParams()
	tr := mkTrace(2,
		op(0, 0, trace.OpSetRPM, 3000),
		req(200, 0, 65536),
		op(0, 1, trace.OpSpinDown, 0),
		req(30000, 1, 65536),
		req(10, 0, 65536),
	)
	res, err := Run(tr, Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	for d, st := range res.Disks {
		sum := st.ActiveEnergyJ + st.IdleEnergyJ + st.StandbyEnergyJ + st.TransitionEnergyJ
		if math.Abs(sum-st.EnergyJ) > 1e-9 {
			t.Errorf("disk %d: breakdown %g != total %g", d, sum, st.EnergyJ)
		}
	}
	// Disk 1 spun down: standby energy present; disk 0 shifted.
	if res.Disks[1].StandbyEnergyJ == 0 {
		t.Error("no standby energy on spun-down disk")
	}
	if res.Disks[0].TransitionEnergyJ == 0 {
		t.Error("no transition energy on shifted disk")
	}
}

func TestRPMResidency(t *testing.T) {
	p := disk.DefaultParams()
	tr := mkTrace(1,
		op(0, 0, trace.OpSetRPM, 3000),
		req(500, 0, 65536),
	)
	res, err := Run(tr, Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	resid := res.Disks[0].RPMResidencyMS
	if resid == nil {
		t.Fatal("no residency recorded")
	}
	// Residency covers the spinning (non-transition) time only.
	var total float64
	for rpm, ms := range resid {
		if p.LevelIndex(rpm) < 0 {
			t.Errorf("residency at non-level %d", rpm)
		}
		total += ms
	}
	want := res.Disks[0].IdleMS + res.Disks[0].ActiveMS
	if math.Abs(total-want) > 1e-9 {
		t.Errorf("residency total %g != idle+active %g", total, want)
	}
	// Most of the 500ms gap was spent at 3000 RPM.
	if resid[3000] < 400 {
		t.Errorf("3000 RPM residency = %g", resid[3000])
	}
}
