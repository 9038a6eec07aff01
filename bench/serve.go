package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"sdpm/internal/core"
	"sdpm/internal/faults"
	"sdpm/internal/workloads"
)

const (
	// clients is the closed loop's concurrency: one client per core of
	// the 2-core machine the benchmark is sized for, each on its own
	// keep-alive connection.
	clients = 2
	// serveSetupReps is how many times serve-hot and serve-exp boot
	// dpmd and warm-fill it; the median is setup_s and the last boot
	// serves the timed window.
	serveSetupReps = 3
	// coldRoundRequests is the number of distinct keys one dpmd serves
	// on serve-cold before it is replaced: nine passes over
	// coldBenches. Every distinct fault_seed leaves one prepared
	// instance (traces plus compiled forms) in core.Cache, which never
	// evicts: each key costs dpmd about 10 MB, and at roughly 800 keys
	// it grew to 7.8 GB and was OOM-killed. 63 keys keep one dpmd near
	// 0.75 GB, and rssLimitKB aborts a round long before a regression
	// could threaten the machine.
	coldRoundRequests = 63
	// coldCheckEvery: one cold request in this many is recomputed
	// in-process after its round; recomputing all would double the
	// run's length.
	coldCheckEvery = 10
	// minColdRounds keeps setup_s and rss_mb medians over several dpmd
	// lifetimes even when a round is slow.
	minColdRounds = 3
	// rssLimitKB is the serve-cold memory guard (2 GiB).
	rssLimitKB = 2 << 20
)

// coldBenches is serve-cold's rotation. The six benchmarks' cold
// latencies form six well-separated modes; with an even number of
// equally weighted modes the median falls on the edge between two and
// jumps between them from run to run. Sending wupwise twice per pass
// makes seven, and puts the median inside the middle one (applu).
var coldBenches = []string{"wupwise", "swim", "mgrid", "applu", "mesa", "galgel", "wupwise"}

// expIDs are the experiments serve-exp cycles through: a scheme grid,
// the misprediction table, a stripe-size sweep and the energy
// breakdown, so requests fan out into grids of different shapes.
var expIDs = []string{"fig3", "table3", "fig5", "breakdown"}

// simReq is a POST /v1/sim body.
type simReq struct {
	Bench     string `json:"bench"`
	Scheme    string `json:"scheme"`
	Faults    string `json:"faults,omitempty"`
	FaultSeed int64  `json:"fault_seed,omitempty"`
}

// simResult is a POST /v1/sim response body.
type simResult struct {
	Bench    string  `json:"bench"`
	Scheme   string  `json:"scheme"`
	EnergyJ  float64 `json:"energy_j"`
	ExecMS   float64 `json:"exec_ms"`
	WaitMS   float64 `json:"wait_ms"`
	Requests int     `json:"requests"`
	PowerOps int     `json:"power_ops"`
}

// hotPairs lists all 42 (benchmark, scheme) pairs.
func hotPairs() []simReq {
	var out []simReq
	for _, b := range workloads.Names() {
		for _, s := range core.AllSchemes() {
			out = append(out, simReq{Bench: b, Scheme: string(s)})
		}
	}
	return out
}

// benchConfig is the configuration dpmd and dpmexp prepare a benchmark
// with.
func benchConfig(b *workloads.Benchmark) core.Config {
	cfg := core.DefaultConfig()
	cfg.Model = b.Model()
	cfg.CacheUnits = b.CacheUnits
	return cfg
}

// expectSims computes each request's result in-process with core, the
// reference a served result must equal field for field.
func expectSims(reqs []simReq) ([]simResult, error) {
	insts := make(map[string]*core.Instance)
	out := make([]simResult, len(reqs))
	for i, q := range reqs {
		key := fmt.Sprintf("%s|%s|%d", q.Bench, q.Faults, q.FaultSeed)
		in := insts[key]
		if in == nil {
			b, err := workloads.ByName(q.Bench)
			if err != nil {
				return nil, err
			}
			cfg := benchConfig(b)
			if q.Faults != "" {
				fc, err := faults.ParseSpec(q.Faults)
				if err != nil {
					return nil, err
				}
				cfg.Faults = fc
				cfg.FaultSeed = q.FaultSeed
			}
			if in, err = core.Prepare(b.Name, b.Program, cfg, nil); err != nil {
				return nil, err
			}
			insts[key] = in
		}
		res, err := in.Run(core.Scheme(q.Scheme))
		if err != nil {
			return nil, err
		}
		out[i] = simResult{
			Bench: q.Bench, Scheme: q.Scheme,
			EnergyJ: res.EnergyJ, ExecMS: res.ExecMS, WaitMS: res.TotalWaitMS,
			Requests: res.Requests, PowerOps: res.PowerOps,
		}
	}
	return out, nil
}

// postSim sends one simulation request and returns its latency and
// decoded result.
func postSim(ctx context.Context, c *http.Client, base string, q simReq) (simResult, float64, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return simResult{}, 0, err
	}
	data, ms, err := post(ctx, c, base+"/v1/sim", string(body))
	if err != nil {
		return simResult{}, 0, err
	}
	var got simResult
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		return simResult{}, 0, fmt.Errorf("decoding %s/%s result: %w", q.Bench, q.Scheme, err)
	}
	return got, ms, nil
}

// checkSim sends one simulation request and compares the result with
// the in-process reference.
func checkSim(ctx context.Context, c *http.Client, base string, q simReq, want simResult) (float64, error) {
	got, ms, err := postSim(ctx, c, base, q)
	if err != nil {
		return 0, err
	}
	if got != want {
		return 0, fmt.Errorf("%s/%s: served %+v, in-process %+v", q.Bench, q.Scheme, got, want)
	}
	return ms, nil
}

// checkExp sends one experiment request and compares the body with the
// offline render.
func checkExp(ctx context.Context, c *http.Client, base, id string, want []byte) (float64, error) {
	body, ms, err := post(ctx, c, base+"/v1/experiment", fmt.Sprintf(`{"id":%q}`, id))
	if err != nil {
		return 0, fmt.Errorf("%s: %w", id, err)
	}
	if !bytes.Equal(body, want) {
		return 0, fmt.Errorf("%s: served bytes differ from the offline render", id)
	}
	return ms, nil
}

// load is what one or more closed-loop windows measured.
type load struct {
	lat     []float64 // ms per attempted request; +Inf for a failed one
	ok      int
	elapsed time.Duration
}

func (l *load) add(o load) {
	l.lat = append(l.lat, o.lat...)
	l.ok += o.ok
	l.elapsed += o.elapsed
}

// okLat returns the latencies of the successful requests.
func (l *load) okLat() []float64 {
	var out []float64
	for _, v := range l.lat {
		if !math.IsInf(v, 0) {
			out = append(out, v)
		}
	}
	return out
}

// closedLoop runs the clients, each sending its next request only when
// the previous one has completed. Client c's i-th request is send(c, i).
// A client stops once window has passed (window > 0) or, when limit >
// 0, once c + i*clients reaches limit, so the clients share limit
// requests by index without a shared counter.
func closedLoop(ctx context.Context, e *env, r *result, name string, window time.Duration, limit int, send func(ctx context.Context, c, i int) (float64, error)) load {
	type clientOut struct {
		lat  []float64
		errs []error
	}
	outs := make([]clientOut, clients)
	parent := e.rec.start(name+".window", 0)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			for i := 0; ; i++ {
				if ctx.Err() != nil ||
					(window > 0 && time.Since(start) >= window) ||
					(limit > 0 && c+i*clients >= limit) {
					return
				}
				id := e.rec.start(name, parent)
				ms, err := send(ctx, c, i)
				e.rec.end(id)
				if err != nil {
					o.lat = append(o.lat, math.Inf(1))
					o.errs = append(o.errs, err)
					continue
				}
				o.lat = append(o.lat, ms)
			}
		}(c)
	}
	wg.Wait()
	l := load{elapsed: time.Since(start)}
	e.rec.end(parent)
	for _, o := range outs {
		l.lat = append(l.lat, o.lat...)
		l.ok += len(o.lat) - len(o.errs)
		r.attempted += len(o.lat)
		for _, err := range o.errs {
			r.fail("%s: %v", name, err)
		}
	}
	return l
}

// daemonSample is dpmd's /metrics and CPU time at one instant.
type daemonSample struct {
	prom map[string]float64
	cpu  time.Duration
}

func sampleDaemon(ctx context.Context, c *http.Client, d *daemon) (daemonSample, error) {
	prom, err := scrape(ctx, c, d.base)
	if err != nil {
		return daemonSample{}, err
	}
	cpu, err := procCPU(d.pid())
	return daemonSample{prom: prom, cpu: cpu}, err
}

// addDelta accumulates after − before for every /metrics sample.
func addDelta(acc, before, after map[string]float64) {
	for k, v := range after {
		acc[k] += v - before[k]
	}
}

// bootAndFill boots dpmd serveSetupReps times, warm-filling each boot
// with fill, and keeps the last one running. It returns that daemon and
// the set-up times (exec → ready plus the warm-fill).
func bootAndFill(ctx context.Context, e *env, c *http.Client, fill func(base string)) (*daemon, []float64, error) {
	var setup []float64
	for {
		id := e.rec.start("setup", 0)
		d, boot, err := startDaemon(ctx, e.dpmd, c)
		if err != nil {
			return nil, nil, err
		}
		t := time.Now()
		fill(d.base)
		setup = append(setup, (boot + time.Since(t)).Seconds())
		e.rec.end(id)
		if len(setup) == serveSetupReps {
			return d, setup, nil
		}
		if err := d.stop(); err != nil {
			return nil, nil, err
		}
		c.CloseIdleConnections()
	}
}

// setServeE2E records the end-to-end metrics of a serve workload.
func setServeE2E(r *result, setup []float64, l load, cpu time.Duration, rssKB []float64) {
	n := len(l.lat)
	r.set("setup_s", median(setup), len(setup))
	r.set("ops_per_s", float64(l.ok)/l.elapsed.Seconds(), l.ok)
	r.set("p50_ms", percentile(l.lat, 50), n)
	r.set("p95_ms", percentile(l.lat, 95), n)
	r.set("cpu_ms_per_op", float64(cpu)/1e6/float64(l.ok), l.ok)
	r.set("rss_mb", median(rssKB)/1024, len(rssKB))
}

// setServeLayer records the serving-layer metrics from a /metrics
// delta and the client latencies of the same requests.
func setServeLayer(r *result, delta map[string]float64, okLat []float64) {
	handled := delta["sdpm_serve_handle_ms_count"]
	handle := delta["sdpm_serve_handle_ms_sum"] / handled
	hits, misses := delta["sdpm_cache_hits_total"], delta["sdpm_cache_misses_total"]
	r.set("serve.handle_ms", handle, int(handled))
	r.set("serve.http_overhead_ms", mean(okLat)-handle, len(okLat))
	r.set("serve.shed", delta["sdpm_serve_shed_total"], int(handled))
	r.set("cache.hit_ratio", hits/(hits+misses), int(hits+misses))
	r.set("cache.misses", misses, int(hits+misses))
	r.set("runner.busy_ms_per_req", delta["sdpm_runner_busy_seconds_total"]*1000/handled, int(handled))
}

// runHot is the repeated-key user: every request hits core.Cache, so
// it measures simulation with dpmd's collector and event log attached,
// plus HTTP and admission, and bypasses the compiler front half.
func runHot(ctx context.Context, e *env, r *result) error {
	pairs := hotPairs()
	want, err := expectSims(pairs)
	if err != nil {
		return err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	d, setup, err := bootAndFill(ctx, e, c, func(base string) { fillSims(ctx, r, c, base, pairs, want) })
	if err != nil {
		return err
	}
	defer d.kill()
	before, err := sampleDaemon(ctx, c, d)
	if err != nil {
		return err
	}
	l := hotWindow(ctx, e, r, c, d.base, pairs, want)
	return finishServe(ctx, e, r, c, d, before, setup, l)
}

// fillSims sends every pair once, checking each result.
func fillSims(ctx context.Context, r *result, c *http.Client, base string, pairs []simReq, want []simResult) {
	for i, q := range pairs {
		r.attempted++
		if _, err := checkSim(ctx, c, base, q, want[i]); err != nil {
			r.fail("warm-fill: %v", err)
		}
	}
}

// hotWindow is serve-hot's timed window against base. Both clients walk
// one seeded permutation of the pairs, client c from offset 21c: a
// shared counter let the scheduler decide which client got which pair
// and moved qps by 10% between runs.
func hotWindow(ctx context.Context, e *env, r *result, c *http.Client, base string, pairs []simReq, want []simResult) load {
	perm := rand.New(rand.NewSource(e.seed)).Perm(len(pairs))
	return closedLoop(ctx, e, r, "http.sim", e.window, 0, func(ctx context.Context, cl, i int) (float64, error) {
		k := perm[(cl*len(pairs)/clients+i)%len(pairs)]
		return checkSim(ctx, c, base, pairs[k], want[k])
	})
}

// finishServe samples and stops the daemon after a timed window and
// records the end-to-end (and, when traced, per-layer) metrics.
func finishServe(ctx context.Context, e *env, r *result, c *http.Client, d *daemon, before daemonSample, setup []float64, l load) error {
	after, err := sampleDaemon(ctx, c, d)
	if err != nil {
		return err
	}
	_, hwm, err := procMemKB(d.pid())
	if err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		r.attempted++
		r.fail("%v", err)
	}
	setServeE2E(r, setup, l, after.cpu-before.cpu, []float64{float64(hwm)})
	if e.rec == nil {
		return nil
	}
	delta := make(map[string]float64)
	addDelta(delta, before.prom, after.prom)
	setServeLayer(r, delta, l.okLat())
	return probeLayers(ctx, e, r, probeAll)
}

// runExp is the many-cells-per-request user: each POST /v1/experiment
// fans a grid of cells out over internal/runner inside dpmd. It runs
// without -journal: fsync timing on a shared disk measures the disk.
func runExp(ctx context.Context, e *env, r *result) error {
	want, err := renderOffline(expIDs)
	if err != nil {
		return err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	d, setup, err := bootAndFill(ctx, e, c, func(base string) {
		for _, id := range expIDs {
			r.attempted++
			if _, err := checkExp(ctx, c, base, id, want[id]); err != nil {
				r.fail("warm-fill: %v", err)
			}
		}
	})
	if err != nil {
		return err
	}
	defer d.kill()

	off := int(uint64(e.seed) % uint64(len(expIDs)))
	before, err := sampleDaemon(ctx, c, d)
	if err != nil {
		return err
	}
	l := closedLoop(ctx, e, r, "http.experiment", e.window, 0, func(ctx context.Context, cl, i int) (float64, error) {
		id := expIDs[(off+cl*len(expIDs)/clients+i)%len(expIDs)]
		return checkExp(ctx, c, d.base, id, want[id])
	})
	return finishServe(ctx, e, r, c, d, before, setup, l)
}

// runCold is the parameter-sweep user: every request carries a
// never-repeated fault_seed, so each one misses core.Cache and runs the
// whole pipeline — preparation, DRPM instrumentation, compilation and
// simulation — and writes a new entry into the cache.
func runCold(ctx context.Context, e *env, r *result) error {
	benchOff := int(uint64(e.seed) % uint64(len(coldBenches)))
	c := newClient()
	defer c.CloseIdleConnections()

	var (
		total   load
		setup   []float64
		rss     []float64
		cpu     time.Duration
		delta   = make(map[string]float64)
		started = time.Now()
	)
	for round := 0; round < minColdRounds || time.Since(started) < e.window; round++ {
		reqs := make([]simReq, coldRoundRequests)
		for j := range reqs {
			reqs[j] = simReq{
				Bench: coldBenches[(benchOff+j)%len(coldBenches)], Scheme: string(core.CMDRPM),
				Faults: "light", FaultSeed: e.seed<<24 + int64(round*coldRoundRequests+j),
			}
		}
		cr, err := coldRound(ctx, e, r, c, reqs)
		if err != nil {
			return err
		}
		total.add(cr.load)
		setup = append(setup, cr.boot.Seconds())
		rss = append(rss, float64(cr.hwmKB))
		cpu += cr.after.cpu - cr.before.cpu
		addDelta(delta, cr.before.prom, cr.after.prom)

		// The window is closed: recompute a sample of this round's
		// requests in-process and compare field for field. Failed
		// requests are already counted and have no result to check.
		var idx []int
		var sample []simReq
		for j := round % coldCheckEvery; j < len(reqs); j += coldCheckEvery {
			if cr.got[j] != (simResult{}) {
				idx = append(idx, j)
				sample = append(sample, reqs[j])
			}
		}
		want, err := expectSims(sample)
		if err != nil {
			return err
		}
		for k, j := range idx {
			r.attempted++
			if cr.got[j] != want[k] {
				r.fail("cold %s seed %d: served %+v, in-process %+v", reqs[j].Bench, reqs[j].FaultSeed, cr.got[j], want[k])
			}
		}
	}
	setServeE2E(r, setup, total, cpu, rss)
	if e.rec == nil {
		return nil
	}
	setServeLayer(r, delta, total.okLat())
	return probeLayers(ctx, e, r, probeAll)
}

// coldOut is what one serve-cold round measured.
type coldOut struct {
	load
	got           []simResult // served results by request index; zero for failures
	boot          time.Duration
	before, after daemonSample
	hwmKB         int64
}

// coldRound boots a fresh dpmd, sends reqs through the closed loop under
// the memory guard, and stops the daemon.
func coldRound(ctx context.Context, e *env, r *result, c *http.Client, reqs []simReq) (coldOut, error) {
	defer c.CloseIdleConnections()
	out := coldOut{got: make([]simResult, len(reqs))}
	id := e.rec.start("setup", 0)
	d, boot, err := startDaemon(ctx, e.dpmd, c)
	e.rec.end(id)
	if err != nil {
		return out, err
	}
	defer d.kill()
	out.boot = boot
	if out.before, err = sampleDaemon(ctx, c, d); err != nil {
		return out, err
	}
	gctx, guard := memGuard(ctx, d.pid(), rssLimitKB)
	out.load = closedLoop(gctx, e, r, "http.sim-cold", 0, len(reqs), func(ctx context.Context, cl, i int) (float64, error) {
		j := cl + i*clients
		res, ms, err := postSim(ctx, c, d.base, reqs[j])
		out.got[j] = res
		return ms, err
	})
	if peak, tripped := guard(); tripped {
		unsent := len(reqs) - len(out.lat)
		r.attempted += unsent + 1
		r.failed += unsent
		r.fail("round aborted: dpmd RSS %d MB passed the %d MB guard", peak/1024, rssLimitKB/1024)
	}
	if out.after, err = sampleDaemon(ctx, c, d); err != nil {
		return out, err
	}
	if _, out.hwmKB, err = procMemKB(d.pid()); err != nil {
		return out, err
	}
	if err := d.stop(); err != nil {
		r.attempted++
		r.fail("%v", err)
	}
	return out, nil
}

// memGuard polls pid's resident set every 20ms and cancels the returned
// context once it passes limitKB. stop ends the polling and reports the
// highest RSS seen and whether the guard tripped.
func memGuard(ctx context.Context, pid int, limitKB int64) (context.Context, func() (peakKB int64, tripped bool)) {
	gctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	var peak int64
	var tripped bool
	go func() {
		defer close(done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-gctx.Done():
				return
			case <-tick.C:
			}
			rss, _, err := procMemKB(pid)
			if err != nil {
				continue
			}
			peak = max(peak, rss)
			if rss > limitKB {
				tripped = true
				cancel()
				return
			}
		}
	}()
	return gctx, func() (int64, bool) {
		cancel()
		<-done
		return peak, tripped
	}
}
