package sdpm

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBenchmarkAccess(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 6 {
		t.Fatalf("names = %v", names)
	}
	w, err := Benchmark("swim")
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "swim" {
		t.Errorf("name = %q", w.Name())
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Benchmark("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunSchemes(t *testing.T) {
	w, _ := Benchmark("galgel")
	cfg := DefaultConfig()
	base, err := w.Run(Base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := w.Run(CMDRPM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cm.EnergyJ >= base.EnergyJ*0.8 {
		t.Errorf("CMDRPM saved too little: %.0f vs %.0f", cm.EnergyJ, base.EnergyJ)
	}
	if cm.PowerOps == 0 {
		t.Error("no power ops recorded")
	}
	if base.Requests != cm.Requests {
		t.Error("request counts differ")
	}
	all, err := w.RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Schemes()) {
		t.Errorf("RunAll = %d results", len(all))
	}
}

func TestTransform(t *testing.T) {
	w, _ := Benchmark("mesa")
	cfg := DefaultConfig()
	tw, applied, err := w.Transform(TLDL, cfg)
	if err != nil || !applied {
		t.Fatalf("transform: %v applied=%v", err, applied)
	}
	if !strings.Contains(tw.Name(), "TL+DL") {
		t.Errorf("name = %q", tw.Name())
	}
	base, _ := w.Run(CMDRPM, cfg)
	xf, err := tw.Run(CMDRPM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if xf.EnergyJ >= base.EnergyJ {
		t.Errorf("TL+DL did not help mesa: %.0f vs %.0f", xf.EnergyJ, base.EnergyJ)
	}

	g, _ := Benchmark("galgel")
	_, applied, err = g.Transform(LF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if applied {
		t.Error("galgel LF applied")
	}
}

func TestParseProgramAndDSL(t *testing.T) {
	src := `
program tiny
array a[128][1024]
nest sweep {
  for i = 0..128
  for j = 0..1024
  do cost 2000 { read a[i][j] }
}
`
	w, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	n, err := w.Requests(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 1MB array = 16 units of 64KB.
	if n != 16 {
		t.Errorf("requests = %d, want 16", n)
	}
	out := w.DSL()
	if !strings.Contains(out, "program tiny") || !strings.Contains(out, "read  a[i][j]") {
		t.Errorf("DSL:\n%s", out)
	}
	if _, err := ParseProgram("garbage"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestMispredictionsFacade(t *testing.T) {
	w, _ := Benchmark("galgel")
	st, err := w.Mispredictions(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.Total == 0 || st.Pct < 0 || st.Pct > 100 {
		t.Errorf("mispredict = %+v", st)
	}
	if st.Wrong > st.Total {
		t.Error("wrong > total")
	}
}

func TestWriteTraceAndDAP(t *testing.T) {
	w, _ := Benchmark("galgel")
	cfg := DefaultConfig()
	var buf bytes.Buffer
	if err := w.WriteTrace(&buf, Base, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sdpm-trace v1") {
		t.Error("trace header missing")
	}
	baseLines := strings.Count(buf.String(), "\n")
	buf.Reset()
	if err := w.WriteTrace(&buf, CMDRPM, cfg); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "\n") <= baseLines {
		t.Error("instrumented trace not larger than base")
	}
	if !strings.Contains(buf.String(), "set_rpm") {
		t.Error("instrumented trace missing power ops")
	}
	// A scheme outside the seven is an error, not the base trace.
	for _, s := range []Scheme{"cmdrpm", "bogus"} {
		buf.Reset()
		if err := w.WriteTrace(&buf, s, cfg); err == nil || buf.Len() != 0 {
			t.Errorf("WriteTrace(%q) = %v after %d bytes, want an error and no output", s, err, buf.Len())
		}
	}
	d, err := w.DAP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(d, "disk0:") || !strings.Contains(d, "active") {
		t.Errorf("DAP:\n%.200s", d)
	}
}

func TestSetTiming(t *testing.T) {
	w, _ := Benchmark("galgel")
	cfg := DefaultConfig()
	a, _ := w.Run(Base, cfg)
	w.SetTiming(0, 0, 99)
	b, _ := w.Run(Base, cfg)
	if a.ExecMS == b.ExecMS {
		t.Error("timing override had no effect")
	}
	// Config-level override beats workload timing.
	cfg.NoisePct, cfg.BiasPct = 0, 0
	c, _ := w.Run(Base, cfg)
	if c.ExecMS != b.ExecMS {
		t.Error("config override mismatch")
	}
}

func TestConfigVariants(t *testing.T) {
	w, _ := Benchmark("galgel")
	cfg := DefaultConfig()
	cfg.NumDisks = 4
	if _, err := w.Run(Base, cfg); err != nil {
		t.Fatal(err)
	}
	cfg = DefaultConfig()
	cfg.StripeUnitBytes = 32 << 10
	n, err := w.Requests(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n64, _ := w.Requests(DefaultConfig())
	if n != 2*n64 {
		t.Errorf("32KB units: %d requests vs %d at 64KB", n, n64)
	}
	cfg = DefaultConfig()
	cfg.StripeUnitBytes = 1000 // unaligned
	if _, err := w.Run(Base, cfg); err == nil {
		t.Error("unaligned unit accepted")
	}
}

func TestRunExperimentQuickOnes(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment("table1", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "IBM Ultrastar") {
		t.Error("table1 output")
	}
	buf.Reset()
	if err := RunExperiment("applicability", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "galgel") {
		t.Error("applicability output")
	}
	if err := RunExperiment("bogus", &buf); err == nil {
		t.Error("bogus experiment accepted")
	}
}

// TestEventOverflowWarns: an experiment run whose event ring
// overflows says so on the default logger, with the dropped and kept
// counts, as dpmsim does; a run whose ring holds every event stays
// quiet.
func TestEventOverflowWarns(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	var logs bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logs, nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })
	const warning = "event ring overflowed; oldest events dropped"
	for _, tc := range []struct {
		capacity int
		warn     bool
	}{{100, true}, {1 << 19, false}} {
		logs.Reset()
		var lines lineCounter
		opts := Options{Workers: 1, Events: &lines, EventCapacity: tc.capacity}
		if err := RunExperiments("fig3", io.Discard, opts); err != nil {
			t.Fatal(err)
		}
		got := logs.String()
		if !tc.warn {
			if strings.Contains(got, warning) {
				t.Errorf("capacity %d, %d events kept: unexpected warning %q", tc.capacity, lines, got)
			}
			continue
		}
		if lines != lineCounter(tc.capacity) {
			t.Errorf("capacity %d: wrote %d events", tc.capacity, lines)
		}
		if !strings.Contains(got, warning) || !strings.Contains(got, "kept=100") || strings.Contains(got, "dropped=0") {
			t.Errorf("capacity %d: log %q lacks the overflow warning", tc.capacity, got)
		}
	}
}

// lineCounter is an io.Writer that counts newlines.
type lineCounter int

func (c *lineCounter) Write(p []byte) (int, error) {
	*c += lineCounter(bytes.Count(p, []byte("\n")))
	return len(p), nil
}

func TestRunExperimentTables(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	for _, id := range []string{"table2", "fig3", "table3"} {
		var buf bytes.Buffer
		if err := RunExperiment(id, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s: empty output", id)
		}
	}
}

func TestSelectSchemeAndEstimate(t *testing.T) {
	w, _ := Benchmark("galgel")
	cfg := DefaultConfig()
	s, predicted, err := w.SelectScheme(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s != CMDRPM {
		t.Errorf("selected %s", s)
	}
	sim, err := w.Run(CMDRPM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if predicted < sim.EnergyJ*0.8 || predicted > sim.EnergyJ*1.2 {
		t.Errorf("prediction %.0f vs simulated %.0f", predicted, sim.EnergyJ)
	}
	if _, err := w.EstimateEnergy(DRPM, cfg); err == nil {
		t.Error("estimate for reactive scheme accepted")
	}
	base, err := w.EstimateEnergy(Base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if predicted >= base {
		t.Errorf("CMDRPM prediction %.0f not below base %.0f", predicted, base)
	}
}

func TestTransformInterchange(t *testing.T) {
	w, _ := Benchmark("wupwise")
	cfg := DefaultConfig()
	tw, applied, err := w.Transform(IC, cfg)
	if err != nil || !applied {
		t.Fatalf("IC: %v applied=%v", err, applied)
	}
	origReqs, _ := w.Requests(cfg)
	icReqs, _ := tw.Requests(cfg)
	if icReqs >= origReqs {
		t.Errorf("IC requests %d >= orig %d", icReqs, origReqs)
	}
	g, _ := Benchmark("galgel")
	if _, applied, _ := g.Transform(IC, cfg); applied {
		t.Error("IC applied to conforming program")
	}
}

func TestRunExperimentCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperimentFormat("applicability", &buf, "csv"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "label,") {
		t.Errorf("CSV output: %.60s", buf.String())
	}
	if err := RunExperimentFormat("applicability", &buf, "bogus"); err == nil {
		t.Error("bogus format accepted")
	}
}

func TestRunOpenFacade(t *testing.T) {
	w, _ := Benchmark("galgel")
	cfg := DefaultConfig()
	closed, err := w.Run(DRPM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	open, err := w.RunOpen(DRPM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if open.ExecMS >= closed.ExecMS {
		t.Errorf("open-loop %0.f not faster than closed %.0f under DRPM", open.ExecMS, closed.ExecMS)
	}
	if _, err := w.RunOpen(CMDRPM, cfg); err == nil {
		t.Error("open-loop CMDRPM accepted")
	}
}

func TestDistanceAwareSeekFacade(t *testing.T) {
	w, _ := Benchmark("galgel")
	cfg := DefaultConfig()
	avg, err := w.Run(Base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DistanceAwareSeek = true
	dist, err := w.Run(Base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dist.ExecMS >= avg.ExecMS {
		t.Errorf("distance seek %0.f not faster than average %.0f on sequential workload", dist.ExecMS, avg.ExecMS)
	}
}

func TestSetLayoutFacade(t *testing.T) {
	w, _ := Benchmark("galgel")
	if err := w.SetLayout("nope", 0, 1, 64<<10); err == nil {
		t.Error("unknown array accepted")
	}
	if err := w.SetLayout("g1", 0, 1, 64<<10); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	if _, err := w.Run(Base, cfg); err != nil {
		t.Fatal(err)
	}
	// Bad layout surfaces at run time.
	w2, _ := Benchmark("galgel")
	_ = w2.SetLayout("g1", 99, 1, 64<<10)
	if _, err := w2.Run(Base, cfg); err == nil {
		t.Error("out-of-range start disk accepted")
	}
}

func TestVersionLists(t *testing.T) {
	if len(Versions()) != 5 {
		t.Errorf("versions = %v", Versions())
	}
	ext := ExtendedVersions()
	if len(ext) != 6 || ext[5] != IC {
		t.Errorf("extended = %v", ext)
	}
}

func TestAnnotatedDSL(t *testing.T) {
	w, _ := Benchmark("galgel")
	cfg := DefaultConfig()
	out, err := w.AnnotatedDSL(CMDRPM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "set_RPM(") {
		t.Error("no calls in annotated listing")
	}
	if _, err := w.AnnotatedDSL(DRPM, cfg); err == nil {
		t.Error("reactive scheme accepted")
	}
}

func TestRunExperimentAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var buf bytes.Buffer
	if err := RunExperiment("all", &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Every artifact's title must appear.
	for _, want := range []string{
		"Table 1", "Table 2", "Figure 3", "Figure 4",
		"Table 3", "Figure 5", "Figure 6", "Figure 7", "Figure 8",
		"Figure 13", "applicability", "interchange", "multiprogram",
		"pre-activation", "bias", "buffer cache", "clustering",
		"open loop", "seek", "breakdown",
	} {
		if !strings.Contains(strings.ToLower(out), strings.ToLower(want)) {
			t.Errorf("output missing %q", want)
		}
	}
}

// The unaudited sweep renders results/experiments.txt byte for byte
// at one worker and at two. make golden renders that file with the
// conservation audit on and dpmexp's default fault seed, 1; the
// unaudited sweep, the one dpmexp and bench's sweep workload run,
// keys its run memo apart from the audited one and must give the
// same bytes.
func TestRunExperimentsAllMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	want, err := os.ReadFile(filepath.Join("results", "experiments.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			var buf bytes.Buffer
			if err := RunExperiments("all", &buf, Options{FaultSeed: 1, Workers: w}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("the sweep differs from results/experiments.txt (%d vs %d bytes)", buf.Len(), len(want))
			}
		})
	}
}

func TestTransformedDSLRoundTrip(t *testing.T) {
	// Transformed programs (fissioned, tiled, blocked, interchanged)
	// must survive the DSL round trip like any other program.
	cfg := DefaultConfig()
	for _, name := range BenchmarkNames() {
		for _, v := range ExtendedVersions() {
			w, _ := Benchmark(name)
			tw, applied, err := w.Transform(v, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, v, err)
			}
			if !applied {
				continue
			}
			text := tw.DSL()
			rw, err := ParseProgram(text)
			if err != nil {
				t.Fatalf("%s/%s: transformed DSL does not parse: %v", name, v, err)
			}
			if rw.DSL() != text {
				t.Errorf("%s/%s: DSL not a fixed point", name, v)
			}
		}
	}
}
