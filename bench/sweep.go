package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"sdpm"
	"sdpm/internal/experiments"
	"sdpm/internal/serve"
	"sdpm/internal/workloads"
)

const (
	// setupReps is how many times a run repeats its set-up to report
	// the median: one set-up is too noisy to gate on.
	setupReps = 9
	// buildsPerRep: building the six programs takes a fraction of a
	// millisecond, so each set-up sample times this many builds and
	// reports their mean, which keeps timer and cache effects small.
	buildsPerRep = 100
	// goldenFaultSeed is dpmexp's default -fault-seed, the one
	// results/experiments.txt was rendered with; only the faults-*
	// experiments depend on it.
	goldenFaultSeed = 1
	// minSweeps keeps a slow commit's p50/p95 from resting on one or
	// two sweeps.
	minSweeps = 5
)

// builtWorkloads keeps the set-up's result reachable so the build is
// not optimized away.
var builtWorkloads []*workloads.Benchmark

// runSweep is the paper-regeneration user: whole sweeps of every
// experiment, offline, with no collector or event log attached. Set-up
// is building the six workload programs; each timed sweep runs on a
// fresh suite (cold instance memo), exactly as dpmexp -run all does.
func runSweep(ctx context.Context, e *env, r *result) error {
	var setup []float64
	runtime.GC()
	for i := 0; i < setupReps; i++ {
		id := e.rec.start("workloads.build", 0)
		t := time.Now()
		for j := 0; j < buildsPerRep; j++ {
			builtWorkloads = workloads.All()
		}
		setup = append(setup, time.Since(t).Seconds()/buildsPerRep)
		e.rec.end(id)
	}

	// One untimed sweep pays heap growth and page faults first.
	if err := sweepOnce(e, r); err != nil {
		return err
	}
	var wallMS, cpuMS []float64
	start := time.Now()
	for len(wallMS) < minSweeps || time.Since(start) < e.window {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Start every sweep from a collected heap, so no sweep pays for
		// the previous one's garbage.
		runtime.GC()
		c0 := selfCPU()
		t := time.Now()
		if err := sweepOnce(e, r); err != nil {
			return err
		}
		wallMS = append(wallMS, float64(time.Since(t))/1e6)
		cpuMS = append(cpuMS, float64(selfCPU()-c0)/1e6)
	}
	elapsed := time.Since(start)
	_, hwm, err := procMemKB(os.Getpid())
	if err != nil {
		return err
	}
	n := len(wallMS)
	r.set("setup_s", median(setup), len(setup))
	r.set("ops_per_s", float64(n)/elapsed.Seconds(), n)
	r.set("p50_ms", median(wallMS), n)
	r.set("p95_ms", percentile(wallMS, 95), n)
	r.set("cpu_ms_per_op", median(cpuMS), n)
	r.set("rss_mb", float64(hwm)/1024, 1)

	if e.rec != nil {
		if err := probeLayers(ctx, e, r, probeAll); err != nil {
			return err
		}
		return servedSweep(ctx, e, r)
	}
	return nil
}

// sweepOnce runs one full sweep and checks its bytes against the
// checked-in golden output.
func sweepOnce(e *env, r *result) error {
	var buf bytes.Buffer
	id := e.rec.start("sweep", 0)
	err := sdpm.RunExperiments("all", &buf, sdpm.Options{Workers: runtime.GOMAXPROCS(0), FaultSeed: goldenFaultSeed})
	e.rec.end(id)
	r.attempted++
	switch {
	case err != nil:
		r.fail("sweep: %v", err)
	case !bytes.Equal(buf.Bytes(), e.golden):
		r.fail("sweep output differs from results/experiments.txt (%d vs %d bytes)", buf.Len(), len(e.golden))
	}
	return nil
}

// servedSweep gives the sweep workload its serving-layer numbers: it
// serves every experiment of one sweep once through an in-process
// serve.New handler (the same handler dpmd mounts) and reads the
// handler's /metrics around it, as the serve workloads read dpmd's.
func servedSweep(ctx context.Context, e *env, r *result) error {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newClient()
	defer c.CloseIdleConnections()

	want, err := renderOffline(experiments.IDs())
	if err != nil {
		return err
	}
	before, err := scrape(ctx, c, ts.URL)
	if err != nil {
		return err
	}
	window := e.rec.start("served-sweep", 0)
	var lat []float64
	for _, id := range experiments.IDs() {
		sid := e.rec.start("http.experiment", window)
		body, ms, err := post(ctx, c, ts.URL+"/v1/experiment", fmt.Sprintf(`{"id":%q,"fault_seed":%d}`, id, goldenFaultSeed))
		e.rec.end(sid)
		r.attempted++
		switch {
		case err != nil:
			r.fail("served %s: %v", id, err)
		case !bytes.Equal(body, want[id]):
			r.fail("served %s differs from the offline render", id)
		default:
			lat = append(lat, ms)
		}
	}
	e.rec.end(window)
	after, err := scrape(ctx, c, ts.URL)
	if err != nil {
		return err
	}
	delta := make(map[string]float64)
	addDelta(delta, before, after)
	setServeLayer(r, delta, lat)
	srv.BeginDrain()
	return srv.Drain(ctx)
}

// renderOffline renders each experiment on one fresh in-process suite:
// the bytes a served experiment must equal.
func renderOffline(ids []string) (map[string][]byte, error) {
	su := experiments.NewSuite()
	su.FaultSeed = goldenFaultSeed
	out := make(map[string][]byte, len(ids))
	for _, id := range ids {
		var buf bytes.Buffer
		if err := experiments.Render(su, id, &buf, "text"); err != nil {
			return nil, fmt.Errorf("offline %s: %w", id, err)
		}
		out[id] = buf.Bytes()
	}
	return out, nil
}
