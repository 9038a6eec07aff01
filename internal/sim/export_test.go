package sim_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sdpm/internal/disk"
	"sdpm/internal/faults"
	"sdpm/internal/obs"
	"sdpm/internal/obs/events"
	"sdpm/internal/sim"
	"sdpm/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenTrace is a small two-disk embedded-scheme workload that
// exercises every timeline segment kind: service, idle, an RPM shift,
// a spin-down, and the on-demand spin-up forced by the request that
// follows it.
func goldenTrace() *trace.Trace {
	req := func(d int, block int64, gap float64) trace.Event {
		return trace.Event{Kind: trace.EvRequest, GapMS: gap, Req: trace.Request{
			Disk: int32(d), Block: block, Bytes: 65536, Kind: trace.Read,
		}}
	}
	op := func(d int, k trace.OpKind, rpm int) trace.Event {
		return trace.Event{Kind: trace.EvPowerOp, Op: trace.PowerOp{Disk: int32(d), Kind: k, RPM: int32(rpm)}}
	}
	return &trace.Trace{Program: "golden", NumDisks: 2, Events: []trace.Event{
		req(0, 0, 2),
		req(1, 128, 2),
		op(1, trace.OpSetRPM, 3000), // shift disk 1 down
		req(0, 256, 50),
		op(1, trace.OpSpinUp, 0), // pre-activate disk 1
		req(1, 384, 20),
		op(0, trace.OpSpinDown, 0), // park disk 0
		req(1, 512, 100),
		req(0, 640, 3000), // disk 0 reaches standby, then on-demand spin-up
	}}
}

func goldenRun(t *testing.T) *sim.Result {
	t.Helper()
	cfg := sim.Config{Disk: disk.DefaultParams(), RecordTimeline: true}
	res, err := sim.Run(goldenTrace(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestChromeTraceGolden locks the exporter's JSON byte-for-byte
// against testdata/trace_two_disk.golden.json. Regenerate with
// `go test ./internal/sim -run ChromeTraceGolden -update` after an
// intentional format change.
func TestChromeTraceGolden(t *testing.T) {
	res := goldenRun(t)
	var buf bytes.Buffer
	if err := sim.WriteChromeTrace(&buf, res, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "trace_two_disk.golden.json")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace JSON differs from %s (rerun with -update if the change is intended)\ngot %d bytes, want %d bytes",
			path, buf.Len(), len(want))
	}
}

// TestChromeTraceStructure checks the exported JSON independently of
// the golden bytes: it must parse, carry the metadata Perfetto uses,
// and contain every event class the run produced.
func TestChromeTraceStructure(t *testing.T) {
	res := goldenRun(t)
	var buf bytes.Buffer
	if err := sim.WriteChromeTrace(&buf, res, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want \"ms\"", doc.DisplayTimeUnit)
	}
	seen := map[string]bool{}
	tids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		seen[ev.Ph+":"+ev.Name] = true
		tids[ev.Tid] = true
		if ev.Ph == "X" && ev.Dur < 0 {
			t.Errorf("span %q at ts=%g has negative duration %g", ev.Name, ev.TS, ev.Dur)
		}
	}
	for _, want := range []string{
		"M:process_name", "M:thread_name",
		"X:service", "X:idle", "X:standby", "X:spindown", "X:spinup", "X:rpmshift",
		"i:spin_down", "i:spin_up", "i:set_rpm",
		"C:disk0 rpm", "C:disk1 power_w",
	} {
		if !seen[want] {
			t.Errorf("missing event %q in exported trace", want)
		}
	}
	if !tids[0] || !tids[1] {
		t.Errorf("expected events on both disk threads, got tids %v", tids)
	}

	// Exporting a run without timelines must fail loudly rather than
	// emit an empty trace.
	bare, err := sim.Run(goldenTrace(), sim.Config{Disk: disk.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.ChromeTraceEvents(bare, nil); err == nil {
		t.Error("ChromeTraceEvents on a run without timelines: want error, got nil")
	}
}

// faultTrace parks disk 0, pre-activates it under a fault plan that
// fails every spin-up attempt (so the pre-activation gives up), and
// then issues a request: the service degrades to on-demand with
// forced success after retries, producing the full fault lifecycle —
// failed attempts, retries, and the fallback.
func faultTrace() *trace.Trace {
	req := func(d int, block int64, gap, arrival float64) trace.Event {
		return trace.Event{Kind: trace.EvRequest, GapMS: gap, Req: trace.Request{
			ArrivalMS: arrival, Disk: int32(d), Block: block, Bytes: 65536, Kind: trace.Read,
		}}
	}
	op := func(d int, k trace.OpKind) trace.Event {
		return trace.Event{Kind: trace.EvPowerOp, Op: trace.PowerOp{Disk: int32(d), Kind: k}}
	}
	return &trace.Trace{Program: "faulty", NumDisks: 1, Events: []trace.Event{
		req(0, 0, 2, 2),
		op(0, trace.OpSpinDown),
		op(0, trace.OpSpinUp), // pre-activation: fails, retries, gives up
		req(0, 128, 30000, 30002),
		req(0, 256, 1000, 31002),
	}}
}

// TestChromeTraceAnnotatedFaultsGolden locks the exporter with an
// event log — timeline plus merged decision/fault events —
// byte-for-byte under a deterministic all-failures fault plan, and
// asserts the fault lifecycle (failed attempts, retries, on-demand
// fallback) surfaces as instant events whose args carry the detail,
// in the same numbers the metrics collector counted.
func TestChromeTraceAnnotatedFaultsGolden(t *testing.T) {
	plan, err := faults.New(1, 1, faults.Config{
		SpinUpFailProb: 1, MaxRetries: 2, RetryBackoffMS: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	coll := obs.New()
	log := events.NewLog(0)
	cfg := sim.Config{
		Disk: disk.DefaultParams(), RecordTimeline: true,
		Obs: coll, Events: log, Faults: plan,
	}
	res, err := sim.Run(faultTrace(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.WriteChromeTrace(&buf, res, log.Events()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "trace_faults.golden.json")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("annotated trace JSON differs from %s (rerun with -update if the change is intended)\ngot %d bytes, want %d bytes",
			path, buf.Len(), len(want))
	}

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("annotated output is not valid JSON: %v", err)
	}
	faultDetails := map[string]int{}
	decisions := 0
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Cat == "fault" && ev.Ph == "i":
			detail, _ := ev.Args["detail"].(string)
			faultDetails[detail]++
		case ev.Cat == "decision" && ev.Ph == "i":
			decisions++
		}
	}
	for _, k := range []obs.Metric{obs.FaultSpinUpFail, obs.FaultRetry, obs.FaultFallback} {
		if got, want := int64(faultDetails[k.Label()]), coll.Value(k); got == 0 || got != want {
			t.Errorf("fault %q: %d instants in trace, collector counted %d", k.Label(), got, want)
		}
	}
	if decisions == 0 {
		t.Error("no decision instants in annotated trace (embedded spin-down/spin-up missing)")
	}
}
