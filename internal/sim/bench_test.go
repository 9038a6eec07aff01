package sim_test

// Allocation-regression benchmarks for the simulator hot path. The
// closed-loop executor services one request at a time over the whole
// trace, so per-request allocations multiply by trace length; these
// benchmarks report allocs/op so a regression is visible in a plain
// `go test -bench SimHotPath -benchmem ./internal/sim` run (see
// docs/performance.md and results/bench_baseline.txt).

import (
	"testing"

	"sdpm/internal/disk"
	"sdpm/internal/obs"
	"sdpm/internal/obs/events"
	"sdpm/internal/policy"
	"sdpm/internal/sim"
	"sdpm/internal/trace"
)

// hotTrace builds a synthetic closed-loop trace: nReqs requests
// round-robined over nDisks with a fixed compute gap, long enough to
// exercise idle-period bookkeeping on every disk.
func hotTrace(nDisks, nReqs int, gapMS float64) *trace.Trace {
	tr := &trace.Trace{Program: "hot", NumDisks: nDisks}
	tr.Events = make([]trace.Event, 0, nReqs)
	arrival := 0.0
	for i := 0; i < nReqs; i++ {
		arrival += gapMS
		tr.Events = append(tr.Events, trace.Event{
			Kind:  trace.EvRequest,
			GapMS: gapMS,
			Req: trace.Request{
				ArrivalMS: arrival,
				Disk:      i % nDisks,
				Block:     int64(i) * 128,
				Bytes:     65536,
				Kind:      trace.Read,
			},
		})
	}
	return tr
}

// BenchmarkSimHotPath measures the closed-loop simulator on a
// 10k-request trace with no policy (the pure machine path), with the
// trace's compiled form memoized outside the loop the way the
// experiment engine memoizes it per trace.
func BenchmarkSimHotPath(b *testing.B) {
	tr := hotTrace(8, 10000, 2.0)
	cfg := sim.Config{Disk: disk.DefaultParams(), Compiled: trace.Compile(tr)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(tr, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Requests != 10000 {
			b.Fatalf("requests = %d", res.Requests)
		}
	}
}

// BenchmarkSimHotPathNoBatch is BenchmarkSimHotPath with the batched
// executor disabled — the general per-request path, for before/after
// comparison under `make bench`.
func BenchmarkSimHotPathNoBatch(b *testing.B) {
	tr := hotTrace(8, 10000, 2.0)
	cfg := sim.Config{Disk: disk.DefaultParams(), DisableBatch: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(tr, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Requests != 10000 {
			b.Fatalf("requests = %d", res.Requests)
		}
	}
}

// BenchmarkSimSteadyRun measures the fully homogeneous case the
// batched executor is built for: one disk, uniform size and gap — a
// single compiled run serviced end to end by the steady-state loop.
func BenchmarkSimSteadyRun(b *testing.B) {
	tr := hotTrace(1, 10000, 2.0)
	cfg := sim.Config{Disk: disk.DefaultParams(), Compiled: trace.Compile(tr)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(tr, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Requests != 10000 {
			b.Fatalf("requests = %d", res.Requests)
		}
	}
}

// BenchmarkSimSteadyRunNoBatch is BenchmarkSimSteadyRun through the
// general per-request path — the denominator of the batching speedup.
func BenchmarkSimSteadyRunNoBatch(b *testing.B) {
	tr := hotTrace(1, 10000, 2.0)
	cfg := sim.Config{Disk: disk.DefaultParams(), DisableBatch: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(tr, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Requests != 10000 {
			b.Fatalf("requests = %d", res.Requests)
		}
	}
}

// BenchmarkSimHotPathDRPM measures the same trace under the reactive
// DRPM policy (RPM shifts on every long idle period).
func BenchmarkSimHotPathDRPM(b *testing.B) {
	p := disk.DefaultParams()
	tr := hotTrace(8, 10000, 40.0)
	comp := trace.Compile(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := sim.Config{Disk: p, Policy: policy.NewDRPM(p, 8), Compiled: comp}
		if _, err := sim.Run(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimHotPathObserved is BenchmarkSimHotPathDRPM as dpmd runs
// it: with a metrics collector and an event log attached, both warmed
// up by one run before the timer starts. Its ratio to
// BenchmarkSimHotPathDRPM is the cost of observing a run.
func BenchmarkSimHotPathObserved(b *testing.B) {
	p := disk.DefaultParams()
	tr := hotTrace(8, 10000, 40.0)
	comp := trace.Compile(tr)
	coll, log := obs.New(), events.NewLog(0)
	run := func() {
		cfg := sim.Config{Disk: p, Policy: policy.NewDRPM(p, 8), Compiled: comp, Obs: coll, Events: log}
		if _, err := sim.Run(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// TestMachineResetReuse checks that a reset machine reproduces a
// fresh machine's run exactly (the reuse contract behind the
// allocation-free simulation loop).
func TestMachineResetReuse(t *testing.T) {
	p := disk.DefaultParams()
	run := func(m *sim.Machine) ([]sim.DiskStats, [][]sim.IdlePeriod) {
		m.SetRPMAt(0, 0, 3000)
		end, err := m.ServiceBlock(0, 500, 65536, -1)
		if err != nil {
			t.Fatal(err)
		}
		end, err = m.ServiceBlock(1, end+200, 65536, -1)
		if err != nil {
			t.Fatal(err)
		}
		m.SpinDownAt(1, end+5)
		return m.Finish(end + 400)
	}
	fresh := sim.NewMachine(2, p)
	wantStats, wantIdles := run(fresh)

	reused := sim.NewMachine(2, p)
	run(reused)
	reused.Reset()
	gotStats, gotIdles := run(reused)

	for d := range wantStats {
		w, g := wantStats[d], gotStats[d]
		if w.EnergyJ != g.EnergyJ || w.IdleMS != g.IdleMS || w.Requests != g.Requests ||
			w.SpinDowns != g.SpinDowns || w.RPMShifts != g.RPMShifts {
			t.Errorf("disk %d stats differ after Reset: %+v vs %+v", d, w, g)
		}
		if len(w.RPMResidencyMS) != len(g.RPMResidencyMS) {
			t.Errorf("disk %d residency differs: %v vs %v", d, w.RPMResidencyMS, g.RPMResidencyMS)
		}
		for rpm, ms := range w.RPMResidencyMS {
			if g.RPMResidencyMS[rpm] != ms {
				t.Errorf("disk %d residency[%d] = %g, want %g", d, rpm, g.RPMResidencyMS[rpm], ms)
			}
		}
		if len(wantIdles[d]) != len(gotIdles[d]) {
			t.Errorf("disk %d idle count %d vs %d", d, len(wantIdles[d]), len(gotIdles[d]))
			continue
		}
		for i := range wantIdles[d] {
			if wantIdles[d][i] != gotIdles[d][i] {
				t.Errorf("disk %d idle %d: %+v vs %+v", d, i, gotIdles[d][i], wantIdles[d][i])
			}
		}
	}
}

// BenchmarkOpenLoopHotPath measures the open-loop replayer (arrival
// queue construction plus per-disk FIFO service).
func BenchmarkOpenLoopHotPath(b *testing.B) {
	p := disk.DefaultParams()
	tr := hotTrace(8, 10000, 2.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := sim.Config{Disk: p, Policy: policy.NewBase()}
		if _, err := sim.RunOpenLoop(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
