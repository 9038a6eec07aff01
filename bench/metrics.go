package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"sdpm/internal/experiments"
)

// metricSpec declares one reported metric. BENCHMARK.json declares the
// same names, units and directions; a test keeps the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEnd are the metrics a user of the system sees, reported by
// every workload from an untraced run. An "op" is one full sweep on
// sweep and one HTTP request on the serve workloads.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.15},
}

// perLayer are the single-layer metrics a traced run reports. They
// have no bound: they explain a change in an end-to-end metric, they
// do not gate one.
func perLayer() []metricSpec {
	l := []metricSpec{
		{"workloads.build_ms", "ms", "lower", 0},
		{"tracegen.prepare_ms", "ms", "lower", 0},
		{"tracegen.sites", "count", "lower", 0},
		{"tracegen.base_trace_ms", "ms", "lower", 0},
		{"insert.instrument_tpm_ms", "ms", "lower", 0},
		{"insert.instrument_drpm_ms", "ms", "lower", 0},
		{"insert.alloc_mb", "MB", "lower", 0},
		{"insert.power_calls", "count", "lower", 0},
		{"trace.compile_ms", "ms", "lower", 0},
		{"trace.batch_coverage", "ratio", "higher", 0},
		{"xform.apply_ms", "ms", "lower", 0},
		{"sim.run_ms", "ms", "lower", 0},
		{"sim.mreq_per_s", "Mreq/s", "higher", 0},
		{"sim.run_observed_ms", "ms", "lower", 0},
		{"sim.observe_overhead_x", "x", "lower", 0},
		{"serve.handle_ms", "ms", "lower", 0},
		{"serve.http_overhead_ms", "ms", "lower", 0},
		{"serve.shed", "count", "lower", 0},
		{"cache.hit_ratio", "ratio", "higher", 0},
		{"cache.misses", "count", "lower", 0},
		{"runner.busy_ms_per_req", "ms", "lower", 0},
	}
	for _, id := range experiments.IDs() {
		l = append(l, metricSpec{experimentMetric(id), "ms", "lower", 0})
	}
	return l
}

// experimentMetric names the per-experiment render time metric.
func experimentMetric(id string) string { return "experiments." + id + "_ms" }

// measurement is one reported value with the number of samples it
// summarizes.
type measurement struct {
	Value float64
	Unit  string
	N     int
}

// result collects one workload's outcome.
type result struct {
	workload  string
	metrics   map[string]measurement
	attempted int
	failed    int
	problems  []string
}

func newResult(workload string) *result {
	return &result{workload: workload, metrics: make(map[string]measurement)}
}

// set records a metric; its unit comes from the declarations.
func (r *result) set(name string, v float64, n int) {
	r.metrics[name] = measurement{Value: v, Unit: unitOf(name), N: n}
}

// fail counts one failed operation and keeps the first few reasons.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// unitOf returns the declared unit of a metric ("" when undeclared).
func unitOf(name string) string {
	for _, s := range append(perLayer(), endToEnd...) {
		if s.Name == name {
			return s.Unit
		}
	}
	return ""
}

// report writes one "workload metric value unit n=N" line per metric of
// the wanted set, then the JSON result object as the last line. It
// reports whether every wanted metric was present and finite and no
// operation failed.
func (r *result) report(w io.Writer, want []metricSpec) bool {
	correct := r.failed == 0
	out := make(map[string]map[string]any, len(want))
	for _, s := range want {
		m, ok := r.metrics[s.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.problems = append(r.problems, fmt.Sprintf("metric %s missing or not finite", s.Name))
			correct = false
			continue
		}
		fmt.Fprintf(w, "%s %s %v %s n=%d\n", r.workload, s.Name, m.Value, m.Unit, m.N)
		if s.Name == "p95_ms" && beyond(95, m.N) < minBeyond {
			tail := "no percentile has"
			if p := tailPercentile(m.N); p > 0 {
				tail = fmt.Sprintf("p%v is the highest with", p)
			}
			fmt.Fprintf(w, "# %s note: p95 of %d samples has %d beyond it; %s %d beyond\n",
				r.workload, m.N, beyond(95, m.N), tail, minBeyond)
		}
		out[s.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	// Metrics measured but not wanted in this mode (the end-to-end
	// numbers of a traced run) are shown for comparison, never in JSON.
	var extra []string
	for name := range r.metrics {
		if !declaredIn(name, want) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		m := r.metrics[name]
		fmt.Fprintf(w, "# %s %s %v %s n=%d (traced)\n", r.workload, name, m.Value, m.Unit, m.N)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# %s FAIL %s\n", r.workload, strings.ReplaceAll(p, "\n", " "))
	}
	attempted := max(r.attempted, 1)
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintf(w, "# %s FAIL encoding result: %v\n", r.workload, err)
		return false
	}
	fmt.Fprintf(w, "%s\n", line)
	return correct
}

func declaredIn(name string, specs []metricSpec) bool {
	for _, s := range specs {
		if s.Name == name {
			return true
		}
	}
	return false
}
