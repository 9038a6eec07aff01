package policy

import (
	"math"
	"testing"

	"sdpm/internal/disk"
	"sdpm/internal/sim"
	"sdpm/internal/trace"
)

// roundRobinTrace models the paper's default workload shape: one
// 64KB request every thinkMS of compute, striped round-robin over
// numDisks disks.
func roundRobinTrace(numDisks, n int, thinkMS float64) *trace.Trace {
	tr := &trace.Trace{Program: "rr", NumDisks: numDisks}
	arr := 0.0
	for i := 0; i < n; i++ {
		arr += thinkMS
		tr.Events = append(tr.Events, trace.Event{
			Kind:  trace.EvRequest,
			GapMS: thinkMS,
			Req:   trace.Request{ArrivalMS: arr, Disk: int32(i % numDisks), Bytes: 65536, Kind: trace.Read},
		})
	}
	return tr
}

// burstTrace produces long per-disk idleness: a burst of requests to
// each disk in turn, with nestGapMS between bursts.
func burstTrace(numDisks, perBurst int, thinkMS float64) *trace.Trace {
	tr := &trace.Trace{Program: "burst", NumDisks: numDisks}
	arr := 0.0
	for d := 0; d < numDisks; d++ {
		for i := 0; i < perBurst; i++ {
			arr += thinkMS
			tr.Events = append(tr.Events, trace.Event{
				Kind:  trace.EvRequest,
				GapMS: thinkMS,
				Req:   trace.Request{ArrivalMS: arr, Disk: int32(d), Bytes: 65536, Kind: trace.Read},
			})
		}
	}
	return tr
}

func run(t *testing.T, tr *trace.Trace, pol sim.Policy) *sim.Result {
	t.Helper()
	res, err := sim.Run(tr, sim.Config{Disk: disk.DefaultParams(), Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBasePolicyMatchesNil(t *testing.T) {
	tr := roundRobinTrace(4, 100, 3.44)
	a := run(t, tr, NewBase())
	b, err := sim.Run(tr, sim.Config{Disk: disk.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.EnergyJ-b.EnergyJ) > 1e-9 || math.Abs(a.ExecMS-b.ExecMS) > 1e-9 {
		t.Error("Base policy diverges from nil policy")
	}
	if a.Scheme != "Base" {
		t.Errorf("scheme = %q", a.Scheme)
	}
}

func TestTPMUselessOnShortGaps(t *testing.T) {
	// The paper's central TPM observation: with ~73ms per-disk gaps,
	// TPM never spins down — no savings, no penalty.
	p := disk.DefaultParams()
	tr := roundRobinTrace(8, 800, 3.44)
	base := run(t, tr, NewBase())
	tpm := run(t, tr, NewTPM(p))
	if math.Abs(tpm.EnergyJ-base.EnergyJ) > 1e-6 {
		t.Errorf("TPM energy %g != base %g", tpm.EnergyJ, base.EnergyJ)
	}
	if math.Abs(tpm.ExecMS-base.ExecMS) > 1e-6 {
		t.Errorf("TPM exec %g != base %g", tpm.ExecMS, base.ExecMS)
	}
	for _, st := range tpm.Disks {
		if st.SpinDowns != 0 {
			t.Error("TPM spun down on short gaps")
		}
	}
}

func TestTPMSpinsDownOnLongGapsWithPenalty(t *testing.T) {
	p := disk.DefaultParams()
	// Bursts give each disk a long idle tail; TPM spins down and the
	// burst's first request pays the spin-up delay.
	tr := burstTrace(4, 3000, 10) // 30s per burst
	base := run(t, tr, NewBase())
	tpm := run(t, tr, NewTPM(p))
	if tpm.EnergyJ >= base.EnergyJ {
		t.Errorf("TPM saved nothing on long gaps: %g >= %g", tpm.EnergyJ, base.EnergyJ)
	}
	if tpm.ExecMS <= base.ExecMS {
		t.Errorf("reactive TPM shows no spin-up penalty: %g <= %g", tpm.ExecMS, base.ExecMS)
	}
	spins := 0
	for _, st := range tpm.Disks {
		spins += st.SpinDowns
	}
	if spins == 0 {
		t.Error("no spin-downs on long gaps")
	}
}

func TestITPMNeverWorseAndNeverSlower(t *testing.T) {
	p := disk.DefaultParams()
	for _, tr := range []*trace.Trace{
		roundRobinTrace(8, 400, 3.44),
		burstTrace(4, 3000, 10),
	} {
		base := run(t, tr, NewBase())
		itpm := run(t, tr, NewITPM(p))
		if itpm.EnergyJ > base.EnergyJ+1e-6 {
			t.Errorf("%s: ITPM worse than base: %g > %g", tr.Program, itpm.EnergyJ, base.EnergyJ)
		}
		if math.Abs(itpm.ExecMS-base.ExecMS) > 1e-6 {
			t.Errorf("%s: ITPM changed exec time", tr.Program)
		}
		if itpm.TotalWaitMS > 1e-9 {
			t.Errorf("%s: ITPM caused waiting", tr.Program)
		}
	}
}

func TestITPMBeatsReactiveTPMOnLongGaps(t *testing.T) {
	p := disk.DefaultParams()
	tr := burstTrace(4, 3000, 10)
	tpm := run(t, tr, NewTPM(p))
	itpm := run(t, tr, NewITPM(p))
	if itpm.EnergyJ >= tpm.EnergyJ {
		t.Errorf("ITPM %g not better than TPM %g", itpm.EnergyJ, tpm.EnergyJ)
	}
}

func TestIDRPMSavesBigOnShortGapsNoPenalty(t *testing.T) {
	p := disk.DefaultParams()
	tr := roundRobinTrace(8, 800, 3.44)
	base := run(t, tr, NewBase())
	id := run(t, tr, NewIDRPM(p))
	if math.Abs(id.ExecMS-base.ExecMS) > 1e-6 || id.TotalWaitMS > 1e-9 {
		t.Fatalf("IDRPM penalty: exec %g vs %g, wait %g", id.ExecMS, base.ExecMS, id.TotalWaitMS)
	}
	saving := 1 - id.EnergyJ/base.EnergyJ
	// The paper reports ~51% for IDRPM; demand a substantial saving.
	if saving < 0.35 {
		t.Errorf("IDRPM saving only %.1f%%", saving*100)
	}
}

func TestReactiveDRPMSavesLessWithPenalty(t *testing.T) {
	p := disk.DefaultParams()
	tr := roundRobinTrace(8, 2000, 3.44)
	base := run(t, tr, NewBase())
	dr := run(t, tr, NewDRPM(p))
	id := run(t, tr, NewIDRPM(p))
	if dr.EnergyJ >= base.EnergyJ {
		t.Fatalf("DRPM saved nothing: %g >= %g", dr.EnergyJ, base.EnergyJ)
	}
	if dr.EnergyJ <= id.EnergyJ {
		t.Errorf("reactive DRPM %g beat the oracle %g", dr.EnergyJ, id.EnergyJ)
	}
	if dr.ExecMS <= base.ExecMS {
		t.Errorf("reactive DRPM shows no penalty: %g <= %g", dr.ExecMS, base.ExecMS)
	}
	penalty := dr.ExecMS/base.ExecMS - 1
	if penalty < 0.02 || penalty > 0.6 {
		t.Errorf("DRPM penalty %.1f%% outside plausible band", penalty*100)
	}
}

func TestDRPMShiftsAndStaysAboveFloor(t *testing.T) {
	p := disk.DefaultParams()
	tr := roundRobinTrace(8, 3000, 3.44)
	res := run(t, tr, NewDRPM(p))
	shifts := 0
	for _, st := range res.Disks {
		shifts += st.RPMShifts
	}
	if shifts == 0 {
		t.Error("reactive DRPM never shifted")
	}
}

func TestDRPMTooShortGapsNoShift(t *testing.T) {
	// Per-disk gaps below the 40 ms idle step never trigger ramping: the
	// reactive controller cannot exploit them.
	p := disk.DefaultParams()
	tr := roundRobinTrace(2, 500, 3.44) // ~13.5ms gaps
	res := run(t, tr, NewDRPM(p))
	for d, st := range res.Disks {
		if st.RPMShifts != 0 {
			t.Errorf("disk %d shifted %d times on sub-step gaps", d, st.RPMShifts)
		}
	}
}

func TestOracleTrailingIdleExploited(t *testing.T) {
	p := disk.DefaultParams()
	// One early request, then a long compute tail on another disk's
	// requests: disk 0's trailing idleness should be exploited by
	// both oracles.
	tr := &trace.Trace{Program: "tail", NumDisks: 2}
	tr.Events = append(tr.Events,
		trace.Event{Kind: trace.EvRequest, GapMS: 1, Req: trace.Request{ArrivalMS: 1, Disk: 0, Bytes: 65536}},
		trace.Event{Kind: trace.EvRequest, GapMS: 100000, Req: trace.Request{ArrivalMS: 100001, Disk: 1, Bytes: 65536}},
	)
	base := run(t, tr, NewBase())
	itpm := run(t, tr, NewITPM(p))
	id := run(t, tr, NewIDRPM(p))
	if itpm.EnergyJ >= base.EnergyJ {
		t.Error("ITPM ignored trailing idleness")
	}
	if id.EnergyJ >= base.EnergyJ {
		t.Error("IDRPM ignored trailing idleness")
	}
	if itpm.Disks[0].SpinDowns != 1 {
		t.Errorf("ITPM trailing spin-downs = %d", itpm.Disks[0].SpinDowns)
	}
}

func TestSchemeOrderingOnDefaultShape(t *testing.T) {
	// The headline ordering of Figure 3 on the untransformed
	// workload shape: Base >= TPM ~= ITPM > DRPM > IDRPM, with
	// CM-schemes between DRPM and IDRPM (tested in the insert
	// package).
	p := disk.DefaultParams()
	tr := roundRobinTrace(8, 2000, 3.44)
	base := run(t, tr, NewBase())
	tpm := run(t, tr, NewTPM(p))
	itpm := run(t, tr, NewITPM(p))
	dr := run(t, tr, NewDRPM(p))
	id := run(t, tr, NewIDRPM(p))

	if math.Abs(tpm.EnergyJ-base.EnergyJ) > base.EnergyJ*0.01 {
		t.Errorf("TPM should be ~= base: %g vs %g", tpm.EnergyJ, base.EnergyJ)
	}
	if math.Abs(itpm.EnergyJ-base.EnergyJ) > base.EnergyJ*0.01 {
		t.Errorf("ITPM should be ~= base on short gaps: %g vs %g", itpm.EnergyJ, base.EnergyJ)
	}
	if !(dr.EnergyJ < base.EnergyJ*0.95) {
		t.Errorf("DRPM should save: %g vs base %g", dr.EnergyJ, base.EnergyJ)
	}
	if !(id.EnergyJ < dr.EnergyJ) {
		t.Errorf("IDRPM %g should beat DRPM %g", id.EnergyJ, dr.EnergyJ)
	}
}
