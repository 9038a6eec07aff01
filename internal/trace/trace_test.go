package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func sampleTrace() *Trace {
	return &Trace{
		Program:  "demo",
		NumDisks: 4,
		Events: []Event{
			{Kind: EvRequest, GapMS: 3.44, Req: Request{ArrivalMS: 0, Disk: 0, Block: 0, Bytes: 65536, Kind: Read, File: "u", Unit: 0, Nest: 0, Iter: 0}},
			{Kind: EvPowerOp, GapMS: 1.0, Op: PowerOp{Disk: 2, Kind: OpSetRPM, RPM: 4200, PredictedIdleMS: 73.5}},
			{Kind: EvRequest, GapMS: 2.44, Req: Request{ArrivalMS: 10, Disk: 1, Block: 128, Bytes: 65536, Kind: Write, File: "u", Unit: 1, Nest: 0, Iter: 8192}},
			{Kind: EvPowerOp, GapMS: 0, Op: PowerOp{Disk: 2, Kind: OpSpinUp}},
			{Kind: EvPowerOp, GapMS: 0, Op: PowerOp{Disk: 3, Kind: OpSpinDown, PredictedIdleMS: 20000}},
			{Kind: EvRequest, GapMS: 3.44, Req: Request{ArrivalMS: 20, Disk: 2, Block: 0, Bytes: 4096, Kind: Read, File: "v", Unit: 0, Nest: 1, Iter: 5}},
		},
	}
}

func TestCounters(t *testing.T) {
	tr := sampleTrace()
	if tr.NumRequests() != 3 {
		t.Errorf("NumRequests = %d", tr.NumRequests())
	}
	if tr.NumPowerOps() != 3 {
		t.Errorf("NumPowerOps = %d", tr.NumPowerOps())
	}
	if tr.TotalBytes() != 65536*2+4096 {
		t.Errorf("TotalBytes = %d", tr.TotalBytes())
	}
	pd := tr.PerDiskRequests()
	if pd[0] != 1 || pd[1] != 1 || pd[2] != 1 || pd[3] != 0 {
		t.Errorf("PerDiskRequests = %v", pd)
	}
}

func TestValidateOK(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestValidateCatches(t *testing.T) {
	mut := []func(*Trace){
		func(tr *Trace) { tr.NumDisks = 0 },
		func(tr *Trace) { tr.Events[0].GapMS = -1 },
		func(tr *Trace) { tr.Events[0].Req.Disk = 9 },
		func(tr *Trace) { tr.Events[0].Req.Bytes = 0 },
		func(tr *Trace) { tr.Events[0].Req.Block = -1 },
		func(tr *Trace) { tr.Events[2].Req.ArrivalMS = -5 }, // before event 0's arrival 0
		func(tr *Trace) { tr.Events[1].Op.Disk = -1 },
		func(tr *Trace) { tr.Events[1].Op.RPM = 0 },
		func(tr *Trace) { tr.Events[0].Kind = 7 },
		// Non-finite times slip through ordered comparisons; Validate
		// must reject them explicitly.
		func(tr *Trace) { tr.Events[0].GapMS = math.NaN() },
		func(tr *Trace) { tr.Events[0].GapMS = math.Inf(1) },
		func(tr *Trace) { tr.Events[0].Req.ArrivalMS = math.NaN() },
		func(tr *Trace) { tr.Events[2].Req.ArrivalMS = math.Inf(1) },
		func(tr *Trace) { tr.Events[1].Op.PredictedIdleMS = math.NaN() },
		func(tr *Trace) { tr.Events[4].Op.PredictedIdleMS = math.Inf(-1) },
	}
	for i, m := range mut {
		tr := sampleTrace()
		m(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Program != tr.Program || got.NumDisks != tr.NumDisks {
		t.Fatalf("header mismatch: %q %d", got.Program, got.NumDisks)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("event count %d != %d", len(got.Events), len(tr.Events))
	}
	for i := range tr.Events {
		a, b := tr.Events[i], got.Events[i]
		if a.Kind != b.Kind {
			t.Fatalf("event %d kind mismatch", i)
		}
		if math.Abs(a.GapMS-b.GapMS) > 1e-6 {
			t.Fatalf("event %d gap %g != %g", i, a.GapMS, b.GapMS)
		}
		if a.Kind == EvRequest {
			if a.Req.Disk != b.Req.Disk || a.Req.Block != b.Req.Block ||
				a.Req.Bytes != b.Req.Bytes || a.Req.Kind != b.Req.Kind ||
				a.Req.File != b.Req.File || a.Req.Unit != b.Req.Unit ||
				a.Req.Nest != b.Req.Nest || a.Req.Iter != b.Req.Iter {
				t.Fatalf("event %d request mismatch: %+v vs %+v", i, a.Req, b.Req)
			}
		} else {
			if a.Op.Disk != b.Op.Disk || a.Op.Kind != b.Op.Kind || a.Op.RPM != b.Op.RPM {
				t.Fatalf("event %d op mismatch: %+v vs %+v", i, a.Op, b.Op)
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		"",                                 // missing header
		"R 0 0 0 64 r 0 - 0 0 0",           // request before header
		"H demo",                           // malformed header
		"H demo x",                         // bad disk count
		"H demo 4\nR 0 0 0",                // short request
		"H demo 4\nR x 0 0 64 r 0 - 0 0 0", // bad arrival
		"H demo 4\nR 0 0 0 64 z 0 - 0 0 0", // bad kind
		"H demo 4\nP 0 bogus 0 0 0",        // bad op kind
		"H demo 4\nP 0 spin_up",            // short op
		"H demo 4\nQ 1 2 3",                // unknown record
		"H demo 4\nP 0 spin_up x 0 0",      // bad rpm
	}
	for i, c := range cases {
		if _, err := Decode(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
}

func TestDecodeSkipsCommentsAndBlank(t *testing.T) {
	src := "# comment\n\nH p 2\n# another\nR 0.5 1 2 512 w 0.25 f 3 1 42\n"
	tr, err := Decode(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumRequests() != 1 {
		t.Fatalf("NumRequests = %d", tr.NumRequests())
	}
	r := tr.Events[0].Req
	if r.Disk != 1 || r.Block != 2 || r.Bytes != 512 || r.Kind != Write || r.File != "f" || r.Unit != 3 || r.Nest != 1 || r.Iter != 42 {
		t.Errorf("request = %+v", r)
	}
}

func TestKindStrings(t *testing.T) {
	if Read.String() != "r" || Write.String() != "w" {
		t.Error("ReqKind strings")
	}
	if OpSpinDown.String() != "spin_down" || OpSpinUp.String() != "spin_up" || OpSetRPM.String() != "set_rpm" {
		t.Error("OpKind strings")
	}
}

func TestEmptyTraceEncode(t *testing.T) {
	tr := &Trace{Program: "", NumDisks: 1}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Program != "" || got.NumDisks != 1 || len(got.Events) != 0 {
		t.Errorf("got %+v", got)
	}
}

func TestMergeOpen(t *testing.T) {
	a := &Trace{Program: "a", NumDisks: 2, Events: []Event{
		{Kind: EvRequest, GapMS: 5, Req: Request{ArrivalMS: 5, Disk: 0, Bytes: 512}},
		{Kind: EvPowerOp, GapMS: 1, Op: PowerOp{Disk: 0, Kind: OpSpinDown}},
		{Kind: EvRequest, GapMS: 10, Req: Request{ArrivalMS: 20, Disk: 1, Bytes: 512}},
	}}
	b := &Trace{Program: "b", NumDisks: 4, Events: []Event{
		{Kind: EvRequest, GapMS: 12, Req: Request{ArrivalMS: 12, Disk: 3, Bytes: 512}},
	}}
	m, err := MergeOpen(4, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Program != "a+b" {
		t.Errorf("program = %q", m.Program)
	}
	if m.NumPowerOps() != 0 {
		t.Error("power ops survived merge")
	}
	if m.NumRequests() != 3 {
		t.Fatalf("requests = %d", m.NumRequests())
	}
	// Sorted by arrival: 5, 12, 20; gaps are deltas.
	wantArr := []float64{5, 12, 20}
	wantGap := []float64{5, 7, 8}
	for i, e := range m.Events {
		if e.Req.ArrivalMS != wantArr[i] || e.GapMS != wantGap[i] {
			t.Errorf("event %d: arrival %g gap %g", i, e.Req.ArrivalMS, e.GapMS)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Disk overflow rejected.
	if _, err := MergeOpen(2, a, b); err == nil {
		t.Error("merged despite disk overflow")
	}
}
