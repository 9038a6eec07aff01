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
				Disk:      int32(i % nDisks),
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

// BenchmarkSimSteadyRun measures a fully homogeneous trace — one
// disk, uniform size and gap — serviced end to end as a single
// compiled run by the lean batched loop. The benchmarks' own traces
// jitter every gap, so no end-to-end workload looks like this; it
// isolates the lean loop's per-request cost.
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
		cfg := sim.Config{Disk: p, Policy: policy.NewDRPM(p), Compiled: comp}
		if _, err := sim.Run(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimHotPathObserved is BenchmarkSimHotPathDRPM as the
// offline tools run it under -events-out: with a metrics collector and
// an event log attached, both warmed up by one run before the timer
// starts. (dpmd attaches the collector alone.) Its ratio to
// BenchmarkSimHotPathDRPM is the cost of observing a run.
func BenchmarkSimHotPathObserved(b *testing.B) {
	p := disk.DefaultParams()
	tr := hotTrace(8, 10000, 40.0)
	comp := trace.Compile(tr)
	coll, log := obs.New(), events.NewLog(0)
	run := func() {
		cfg := sim.Config{Disk: p, Policy: policy.NewDRPM(p), Compiled: comp, Obs: coll, Events: log}
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

// BenchmarkOpenLoopHotPath measures the open-loop replayer (arrival
// queue construction plus per-disk FIFO service).
func BenchmarkOpenLoopHotPath(b *testing.B) {
	p := disk.DefaultParams()
	tr := hotTrace(8, 10000, 2.0)
	comp := trace.Compile(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := sim.Config{Disk: p, Policy: policy.NewBase(), Compiled: comp}
		if _, err := sim.RunOpenLoop(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
