package tracegen_test

import (
	"math"
	"testing"

	"sdpm/internal/access"
	"sdpm/internal/cycles"
	"sdpm/internal/disk"
	"sdpm/internal/insert"
	"sdpm/internal/ir"
	"sdpm/internal/layout"
	"sdpm/internal/trace"
	"sdpm/internal/tracegen"
)

// sweepProgram builds a program that sweeps a single 64KB-unit-
// striped array `sweeps` times.
func sweepProgram(t *testing.T, elems int64, sweeps int, costPerIter int64) (*ir.Program, *layout.Subsystem) {
	t.Helper()
	b := ir.NewBuilder("sweep")
	u := b.Array1D("u", elems)
	for s := 0; s < sweeps; s++ {
		b.Nest("n", ir.L("i", elems)).Stmt(costPerIter, ir.R(u, ir.Var(0)))
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sub := layout.MustSubsystem(8)
	if err := access.PlaceArrays(p, sub, layout.Striping{StartDisk: 0, Factor: 8, UnitBytes: 65536}); err != nil {
		t.Fatal(err)
	}
	return p, sub
}

// generate builds the program's base runtime trace from its sites
// under a cacheUnits-unit buffer cache, on the default disk.
func generate(t *testing.T, p *ir.Program, sub *layout.Subsystem, cacheUnits int, m *cycles.Model) *trace.Trace {
	t.Helper()
	ss, files, err := tracegen.Sites(p, sub, cacheUnits)
	if err != nil {
		t.Fatal(err)
	}
	return insert.Base(p.Name, sub.NumDisks(), ss, insert.Options{Disk: disk.DefaultParams(), Model: m, Files: files})
}

func TestSitesCountMatchesUnitsTimesSweeps(t *testing.T) {
	// 2MB array = 32 units of 64KB; 3 sweeps -> 96 requests.
	p, sub := sweepProgram(t, 256*1024, 3, 100)
	ss, _, err := tracegen.Sites(p, sub, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 96 {
		t.Fatalf("sites = %d, want 96", len(ss))
	}
	if err := tracegen.Check(ss, 8); err != nil {
		t.Fatal(err)
	}
	// Round-robin over 8 disks.
	for i, s := range ss {
		if int(s.Disk) != i%8 {
			t.Fatalf("site %d disk = %d", i, s.Disk)
		}
		if s.Bytes != 65536 {
			t.Fatalf("site %d bytes = %d", i, s.Bytes)
		}
	}
}

func TestCacheSuppressesRepeats(t *testing.T) {
	// Array fits in cache: second sweep produces no requests.
	b := ir.NewBuilder("small")
	u := b.Array1D("u", 8192) // 64KB = 4 units of 16KB
	b.Nest("n0", ir.L("i", 8192)).Stmt(10, ir.R(u, ir.Var(0)))
	b.Nest("n1", ir.L("i", 8192)).Stmt(10, ir.R(u, ir.Var(0)))
	p := b.MustBuild()
	sub := layout.MustSubsystem(4)
	if err := access.PlaceArrays(p, sub, layout.Striping{StartDisk: 0, Factor: 4, UnitBytes: 16384}); err != nil {
		t.Fatal(err)
	}
	ss, _, err := tracegen.Sites(p, sub, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 4 {
		t.Fatalf("sites = %d, want 4 (second sweep cached)", len(ss))
	}
	// No-cache mode: both sweeps fetch.
	ss, _, err = tracegen.Sites(p, sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 8 {
		t.Fatalf("no-cache sites = %d, want 8", len(ss))
	}
}

func TestCyclePositions(t *testing.T) {
	p, sub := sweepProgram(t, 8192*4, 2, 100) // 4 units per sweep
	ss, _, err := tracegen.Sites(p, sub, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 8 {
		t.Fatalf("sites = %d", len(ss))
	}
	// First request of first nest at iteration 0 -> cycle 0.
	if ss[0].CyclePos != 0 {
		t.Errorf("first cycle pos = %d", ss[0].CyclePos)
	}
	// Second request at iteration 8192 -> 8192*100 cycles.
	if ss[1].CyclePos != 819200 {
		t.Errorf("second cycle pos = %d", ss[1].CyclePos)
	}
	// First request of second nest: base = 4*8192*100.
	if ss[4].Nest != 1 || ss[4].CyclePos != 4*8192*100 {
		t.Errorf("site 4 = %+v", ss[4])
	}
}

func TestGenerateGapsMeanNoNoise(t *testing.T) {
	p, sub := sweepProgram(t, 8192*4, 1, 750) // 750 cycles/iter at 750MHz = 1us/iter
	m := cycles.New(750e6, 0, 1)
	tr := generate(t, p, sub, 2, m)
	if tr.NumRequests() != 4 {
		t.Fatalf("requests = %d", tr.NumRequests())
	}
	// Gap between consecutive requests: 8192 iterations * 1us = 8.192ms.
	for i := 1; i < 4; i++ {
		if math.Abs(tr.Events[i].GapMS-8.192) > 1e-9 {
			t.Errorf("gap %d = %g", i, tr.Events[i].GapMS)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateNominalArrivals(t *testing.T) {
	p, sub := sweepProgram(t, 8192*4, 1, 750)
	m := cycles.New(750e6, 0, 1)
	tr := generate(t, p, sub, 64, m)
	dp := disk.DefaultParams()
	svc := dp.ServiceTimeMS(dp.MaxRPM, 65536)
	// arrival[i] = arrival[i-1] + the full-speed service time + 8.192.
	for i := 1; i < len(tr.Events); i++ {
		d := tr.Events[i].Req.ArrivalMS - tr.Events[i-1].Req.ArrivalMS
		if math.Abs(d-(svc+8.192)) > 1e-9 {
			t.Errorf("arrival delta %d = %g", i, d)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, sub := sweepProgram(t, 8192*8, 2, 500)
	m := cycles.New(750e6, 20, 42)
	a := generate(t, p, sub, 64, m)
	b := generate(t, p, sub, 64, m)
	if len(a.Events) != len(b.Events) {
		t.Fatal("lengths differ")
	}
	for i := range a.Events {
		if a.Events[i].GapMS != b.Events[i].GapMS {
			t.Fatal("gaps differ between identical runs")
		}
	}
}

func TestJitterChangesGapsNotSites(t *testing.T) {
	p, sub := sweepProgram(t, 8192*8, 1, 500)
	m0 := cycles.New(750e6, 0, 1)
	m1 := cycles.New(750e6, 25, 1)
	a := generate(t, p, sub, 64, m0)
	b := generate(t, p, sub, 64, m1)
	if len(a.Events) != len(b.Events) {
		t.Fatal("jitter changed request count")
	}
	diff := false
	for i := range a.Events {
		ra, rb := a.Events[i].Req, b.Events[i].Req
		if ra.Disk != rb.Disk || ra.Block != rb.Block || ra.Unit != rb.Unit {
			t.Fatal("jitter changed request placement")
		}
		if a.Events[i].GapMS != b.Events[i].GapMS {
			diff = true
		}
	}
	if !diff {
		t.Error("25% jitter produced identical gaps")
	}
}

func TestPredictedIssueMS(t *testing.T) {
	ss := []tracegen.Site{
		{CyclePos: 0, Bytes: 65536},
		{CyclePos: 750000, Bytes: 65536},  // 1ms of compute later
		{CyclePos: 2250000, Bytes: 65536}, // 2ms later
	}
	m := cycles.New(750e6, 0, 1)
	svc := func(int64) float64 { return 6.5 }
	got := tracegen.PredictedIssueMS(ss, m, svc)
	want := []float64{0, 0 + 6.5 + 1, 7.5 + 6.5 + 2}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("issue[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	// nil service: pure compute offsets.
	got = tracegen.PredictedIssueMS(ss, m, nil)
	want = []float64{0, 1, 3}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("no-svc issue[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestCheckCatches(t *testing.T) {
	ok := []tracegen.Site{{Disk: 0, Bytes: 1, CyclePos: 0}, {Disk: 1, Bytes: 1, CyclePos: 5}}
	if err := tracegen.Check(ok, 2); err != nil {
		t.Fatal(err)
	}
	if err := tracegen.Check([]tracegen.Site{{Disk: 2, Bytes: 1}}, 2); err == nil {
		t.Error("bad disk accepted")
	}
	if err := tracegen.Check([]tracegen.Site{{Disk: 0, Bytes: 0}}, 2); err == nil {
		t.Error("zero bytes accepted")
	}
	if err := tracegen.Check([]tracegen.Site{{Disk: 0, Bytes: 1, CyclePos: 5}, {Disk: 0, Bytes: 1, CyclePos: 1}}, 2); err == nil {
		t.Error("decreasing cycles accepted")
	}
}

func TestWriteKindPropagates(t *testing.T) {
	b := ir.NewBuilder("w")
	u := b.Array1D("u", 8192)
	v := b.Array1D("v", 8192)
	b.Nest("n0", ir.L("i", 8192)).Stmt(10, ir.R(u, ir.Var(0)), ir.W(v, ir.Var(0)))
	p := b.MustBuild()
	sub := layout.MustSubsystem(2)
	if err := access.PlaceArrays(p, sub, layout.Striping{StartDisk: 0, Factor: 2, UnitBytes: 16384}); err != nil {
		t.Fatal(err)
	}
	ss, files, err := tracegen.Sites(p, sub, 8)
	if err != nil {
		t.Fatal(err)
	}
	var reads, writes int
	for _, s := range ss {
		switch {
		case files[s.File-1] == "u" && s.Kind == trace.Read:
			reads++
		case files[s.File-1] == "v" && s.Kind == trace.Write:
			writes++
		default:
			t.Fatalf("unexpected site %+v", s)
		}
	}
	if reads != 4 || writes != 4 {
		t.Errorf("reads=%d writes=%d", reads, writes)
	}
}
