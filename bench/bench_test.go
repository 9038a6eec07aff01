package main

import (
	"context"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"sdpm/internal/serve"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 20; i >= 1; i-- { // unsorted on purpose
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{
		{50, 10}, {90, 18}, {95, 19}, {99, 20}, {100, 20}, {1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..20 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("p95 of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	// A failed request is +Inf and must land in the tail.
	if got := percentile([]float64{1, math.Inf(1), 2}, 50); got != 2 {
		t.Errorf("p50 with a failure = %v, want 2", got)
	}
	if xs[0] != 20 {
		t.Error("percentile reordered its input")
	}
}

func TestTailPercentileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 0}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if got != 0 && beyond(got, c.n) < minBeyond {
			t.Errorf("n=%d: p%v has only %d samples beyond", c.n, got, beyond(got, c.n))
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3.5, 1.25, 9, 7, 2}, [3]float64{1.625, 3.5, 8}},
		{[]float64{5, 1, 4, 2, 3, 8, 7}, [3]float64{2, 4, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != (8.25-2.75)/5.5 {
		t.Errorf("relSpread = %v", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "b", StartNS: 20, EndNS: 50},    // overlaps a
		{ID: 4, Parent: 1, Name: "b", StartNS: 90, EndNS: 120},   // runs past the parent
		{ID: 5, Parent: 3, Name: "leaf", StartNS: 25, EndNS: 35}, // grandchild
		{ID: 6, Name: "other", StartNS: 0, EndNS: 7},
	}
	self := selfTimes(spans)
	// Children cover [10,50) and [90,100) of the parent: 50 of 100.
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 7} {
		if self[id] != want {
			t.Errorf("self[%d] = %d, want %d", id, self[id], want)
		}
	}
	byName := selfMSByName(spans, 1)
	want := map[string]float64{"parent": 50e-6, "a": 20e-6, "b": 50e-6, "leaf": 10e-6}
	if len(byName) != len(want) {
		t.Errorf("selfMSByName = %v, want %v (span 6 is outside the subtree)", byName, want)
	}
	for k, v := range want {
		if math.Abs(byName[k]-v) > 1e-12 {
			t.Errorf("selfMSByName[%s] = %v, want %v", k, byName[k], v)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkJSONDeclaresEveryMetric(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("workload %d = %q, harness has %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1-200 characters", w.Name)
		}
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ starting with a letter or digit", name)
		}
		if seen[name] {
			t.Errorf("metric %q declared twice", name)
		}
		seen[name] = true
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(bf.EndToEnd), len(endToEnd))
	}
	var setupBound, maxOther float64
	for i, m := range bf.EndToEnd {
		check(m.Name)
		h := endToEnd[i]
		if m.Name != h.Name || m.Unit != h.Unit || m.Better != h.Better || m.Bound != h.Bound {
			t.Errorf("end_to_end[%d] = %+v, harness declares %+v", i, m, h)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else {
			maxOther = max(maxOther, m.Bound)
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxOther)
	}
	pl := perLayer()
	if len(bf.PerLayer) != len(pl) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(bf.PerLayer), len(pl))
	}
	for i, m := range bf.PerLayer {
		check(m.Name)
		if m.Name != pl[i].Name || m.Unit != pl[i].Unit || m.Better != pl[i].Better {
			t.Errorf("per_layer[%d] = %+v, harness declares %+v", i, m, pl[i])
		}
	}
}

// TestSmokeHotWindowAndTracedProbe runs serve-hot's traffic for one
// second against the in-process serve.New handler (the one dpmd
// mounts), then the traced layer probe on swim, and checks that every
// metric produced is declared and finite and that nothing failed.
func TestSmokeHotWindowAndTracedProbe(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "results", "experiments.txt"))
	if err != nil {
		t.Fatal(err)
	}
	e := &env{seed: 7, window: time.Second, rec: newRecorder(), golden: golden}
	r := newResult("smoke")
	ctx := context.Background()

	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newClient()
	defer c.CloseIdleConnections()

	pairs := hotPairs()
	want, err := expectSims(pairs)
	if err != nil {
		t.Fatal(err)
	}
	fillSims(ctx, r, c, ts.URL, pairs, want)
	before, err := scrape(ctx, c, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	l := hotWindow(ctx, e, r, c, ts.URL, pairs, want)
	after, err := scrape(ctx, c, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if l.ok == 0 || l.ok != len(l.lat) {
		t.Fatalf("hot window: %d ok of %d", l.ok, len(l.lat))
	}
	delta := map[string]float64{}
	addDelta(delta, before, after)
	setServeLayer(r, delta, l.okLat())
	if got := r.metrics["cache.hit_ratio"].Value; got != 1 {
		t.Errorf("hot cache.hit_ratio = %v, want 1", got)
	}

	if err := probeLayers(ctx, e, r, probeOpts{benches: []string{"swim"}, experiments: []string{"table1", "table2"}, reps: 1}); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%d failures: %v", r.failed, r.problems)
	}
	for name, m := range r.metrics {
		if unitOf(name) == "" {
			t.Errorf("emitted metric %q is not declared", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
			t.Errorf("%s = %v", name, m.Value)
		}
	}
	for _, name := range []string{"tracegen.prepare_ms", "insert.instrument_drpm_ms", "trace.compile_ms", "sim.run_ms", "serve.handle_ms"} {
		if r.metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, r.metrics[name].Value)
		}
	}
	if cov := r.metrics["trace.batch_coverage"].Value; cov <= 0 || cov > 1 {
		t.Errorf("trace.batch_coverage = %v, want in (0, 1]", cov)
	}
	if x := r.metrics["sim.observe_overhead_x"].Value; x <= 1 {
		t.Errorf("sim.observe_overhead_x = %v: attaching observers should cost something", x)
	}
	if len(e.rec.snapshot()) == 0 {
		t.Error("traced run recorded no spans")
	}

	srv.BeginDrain()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}
