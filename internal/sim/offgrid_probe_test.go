package sim

import (
	"testing"

	"sdpm/internal/disk"
	"sdpm/internal/trace"
)

// TestOffGridRPMBatchProbe pins down the batched executor's handling
// of an RPM level outside the disk's grid: an embedded set_rpm to an
// off-grid speed must clamp to a real level, and the run's residency
// must land on the grid, the only speeds the machine's per-level
// residency can hold.
func TestOffGridRPMBatchProbe(t *testing.T) {
	tr := &trace.Trace{NumDisks: 1}
	tr.Events = append(tr.Events, trace.Event{Kind: trace.EvPowerOp,
		Op: trace.PowerOp{Kind: trace.OpSetRPM, Disk: 0, RPM: 7000}})
	for i := 0; i < 8; i++ {
		tr.Events = append(tr.Events, trace.Event{Kind: trace.EvRequest, GapMS: 1000,
			Req: trace.Request{ArrivalMS: float64(i) * 1000, Disk: 0, Block: int64(i), Bytes: 4096}})
	}
	comp := trace.Compile(tr)
	if len(comp.Runs) == 0 {
		t.Fatal("trace compiled to zero runs")
	}
	p := disk.DefaultParams()
	res, err := Run(tr, Config{Disk: p})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Disks[0].EnergyJ <= 0 {
		t.Fatalf("energy = %v, want > 0", res.Disks[0].EnergyJ)
	}
	for rpm := range res.Disks[0].RPMResidencyMS {
		if p.LevelIndex(rpm) < 0 {
			t.Errorf("residency recorded at off-grid rpm %d (SetRPMAt clamp failed)", rpm)
		}
	}
}
