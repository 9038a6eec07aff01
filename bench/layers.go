package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"

	"sdpm/internal/core"
	"sdpm/internal/experiments"
	"sdpm/internal/insert"
	"sdpm/internal/obs"
	"sdpm/internal/obs/events"
	"sdpm/internal/sim"
	"sdpm/internal/trace"
	"sdpm/internal/workloads"
)

// probeOpts selects what the layer probe covers.
type probeOpts struct {
	benches     []string // workload programs to push through the pipeline
	experiments []string // experiments to render on one fresh suite
	reps        int      // repetitions; each metric is the median over reps
}

// probeAll is the probe every traced run makes: all six benchmarks and
// every experiment, three times.
var probeAll = probeOpts{benches: workloads.Names(), experiments: experiments.IDs(), reps: 3}

// probeLayers times each layer of the pipeline by calling its public
// entry point directly, one benchmark after another on one goroutine,
// with a span around every call, and records the per-layer metrics from
// the spans' self time. Every layer's output is compared with what the
// end-to-end paths produce, so a fast but wrong layer fails the run.
func probeLayers(ctx context.Context, e *env, r *result, o probeOpts) error {
	reps := make([]map[string]float64, 0, o.reps)
	for i := 0; i < o.reps; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		m, err := probeOnce(e, r, o)
		if err != nil {
			return err
		}
		reps = append(reps, m)
	}
	for name := range reps[0] {
		vals := make([]float64, len(reps))
		for i, m := range reps {
			vals[i] = m[name]
		}
		r.set(name, median(vals), len(vals))
	}
	return nil
}

// probeOnce runs the probe once and returns its metrics.
func probeOnce(e *env, r *result, o probeOpts) (map[string]float64, error) {
	rec := e.rec
	root := rec.start("probe", 0)
	var (
		sites, powerCalls    int
		runEvents, numEvents int
		simRequests          int
		allocBytes           uint64
		m                    runtime.MemStats
		unobserved, tracked  []*sim.Result
	)
	id := rec.start("workloads.build", root)
	all := workloads.All()
	rec.end(id)
	for _, name := range o.benches {
		var b *workloads.Benchmark
		for _, cand := range all {
			if cand.Name == name {
				b = cand
			}
		}
		if b == nil {
			return nil, fmt.Errorf("probe: unknown benchmark %q", name)
		}
		bench := rec.start("bench", root)
		cfg := benchConfig(b)

		id = rec.start("tracegen.prepare", bench)
		in, err := core.Prepare(b.Name, b.Program, cfg, nil)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		sites += len(in.Sites)

		id = rec.start("tracegen.base_trace", bench)
		base := in.BaseTrace()
		rec.end(id)

		runtime.ReadMemStats(&m)
		allocBefore := m.TotalAlloc
		traces := []*trace.Trace{base}
		for _, mode := range []struct {
			mode insert.Mode
			span string
		}{{insert.ModeTPM, "insert.instrument_tpm"}, {insert.ModeDRPM, "insert.instrument_drpm"}} {
			id = rec.start(mode.span, bench)
			tr, plan, err := in.Instrumented(mode.mode)
			rec.end(id)
			if err != nil {
				return nil, err
			}
			powerCalls += plan.Ops
			traces = append(traces, tr)
		}
		runtime.ReadMemStats(&m)
		allocBytes += m.TotalAlloc - allocBefore

		for _, tr := range traces {
			id = rec.start("trace.compile", bench)
			c := in.Compiled(tr)
			rec.end(id)
			numEvents += c.NumEvents
			for _, run := range c.Runs {
				runEvents += run.Count
			}
		}

		// Simulation as dpmexp runs it (nothing attached), then as dpmd
		// runs it (a fresh collector and event log); the two must agree.
		unobserved, tracked = unobserved[:0], tracked[:0]
		for _, s := range core.AllSchemes() {
			id = rec.start("sim.run", bench)
			res, err := in.Run(s)
			rec.end(id)
			if err != nil {
				return nil, err
			}
			simRequests += res.Requests
			unobserved = append(unobserved, res)
		}
		in.Obs, in.Events = obs.New(), events.NewLog(0)
		for _, s := range core.AllSchemes() {
			id = rec.start("sim.run_observed", bench)
			res, err := in.Run(s)
			rec.end(id)
			if err != nil {
				return nil, err
			}
			tracked = append(tracked, res)
		}
		for i, s := range core.AllSchemes() {
			r.attempted++
			u, t := unobserved[i], tracked[i]
			if u.EnergyJ != t.EnergyJ || u.ExecMS != t.ExecMS || u.Requests != t.Requests || u.PowerOps != t.PowerOps {
				r.fail("probe %s/%s: observed run differs from the unobserved one", b.Name, s)
			}
		}

		nestCost := in.NestRequests()
		for _, v := range core.AllVersions() {
			id = rec.start("xform.apply", bench)
			_, _, _, err := core.ApplyVersion(b.Program, v, cfg, nestCost)
			rec.end(id)
			if err != nil {
				return nil, err
			}
		}
		rec.end(bench)
	}

	// Experiments render one after another on one fresh suite with one
	// worker, so each one's time is its own; later experiments reuse
	// the instances earlier ones prepared, as in a sweep.
	su := experiments.NewSuite()
	su.Workers = 1
	su.FaultSeed = goldenFaultSeed
	var out bytes.Buffer
	for _, x := range o.experiments {
		id = rec.start(experimentMetric(x), root)
		err := experiments.Render(su, x, &out, "text")
		rec.end(id)
		if err != nil {
			return nil, err
		}
		out.WriteByte('\n')
	}
	if len(o.experiments) == len(experiments.IDs()) {
		r.attempted++
		if !bytes.Equal(out.Bytes(), e.golden) {
			r.fail("probe: serial experiment renders differ from results/experiments.txt")
		}
	}
	rec.end(root)

	self := selfMSByName(rec.snapshot(), root)
	metrics := map[string]float64{
		"workloads.build_ms":        self["workloads.build"],
		"tracegen.prepare_ms":       self["tracegen.prepare"],
		"tracegen.sites":            float64(sites),
		"tracegen.base_trace_ms":    self["tracegen.base_trace"],
		"insert.instrument_tpm_ms":  self["insert.instrument_tpm"],
		"insert.instrument_drpm_ms": self["insert.instrument_drpm"],
		"insert.alloc_mb":           float64(allocBytes) / (1 << 20),
		"insert.power_calls":        float64(powerCalls),
		"trace.compile_ms":          self["trace.compile"],
		"trace.batch_coverage":      float64(runEvents) / float64(numEvents),
		"xform.apply_ms":            self["xform.apply"],
		"sim.run_ms":                self["sim.run"],
		"sim.mreq_per_s":            float64(simRequests) / self["sim.run"] / 1e3,
		"sim.run_observed_ms":       self["sim.run_observed"],
		"sim.observe_overhead_x":    self["sim.run_observed"] / self["sim.run"],
	}
	for _, x := range o.experiments {
		metrics[experimentMetric(x)] = self[experimentMetric(x)]
	}
	return metrics, nil
}
