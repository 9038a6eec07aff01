package sim

import (
	"math"
	"reflect"
	"testing"

	"sdpm/internal/disk"
	"sdpm/internal/trace"
)

func arrivalTrace(nd int, arrivals []float64, disks []int) *trace.Trace {
	tr := &trace.Trace{Program: "ol", NumDisks: nd}
	prev := 0.0
	for i, at := range arrivals {
		tr.Events = append(tr.Events, trace.Event{
			Kind:  trace.EvRequest,
			GapMS: at - prev,
			Req:   trace.Request{ArrivalMS: at, Disk: int32(disks[i]), Bytes: 65536, Kind: trace.Read},
		})
		prev = at
	}
	return tr
}

func TestOpenLoopNoContention(t *testing.T) {
	p := disk.DefaultParams()
	svc := p.ServiceTimeMS(p.MaxRPM, 65536)
	// Requests far apart: open loop equals per-request service.
	tr := arrivalTrace(2, []float64{0, 100, 200}, []int{0, 1, 0})
	res, err := RunOpenLoop(tr, Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ExecMS-(200+svc)) > 1e-9 {
		t.Errorf("ExecMS = %g, want %g", res.ExecMS, 200+svc)
	}
	if res.TotalWaitMS != 0 {
		t.Errorf("wait = %g", res.TotalWaitMS)
	}
	if res.Requests != 3 {
		t.Errorf("requests = %d", res.Requests)
	}
}

func TestOpenLoopQueueing(t *testing.T) {
	p := disk.DefaultParams()
	svc := p.ServiceTimeMS(p.MaxRPM, 65536)
	// Three simultaneous arrivals on one disk: FIFO.
	tr := arrivalTrace(1, []float64{0, 0, 0}, []int{0, 0, 0})
	res, err := RunOpenLoop(tr, Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ExecMS-3*svc) > 1e-9 {
		t.Errorf("ExecMS = %g, want %g", res.ExecMS, 3*svc)
	}
	// Queueing: second waits svc, third waits 2*svc.
	if math.Abs(res.TotalWaitMS-3*svc) > 1e-9 {
		t.Errorf("wait = %g, want %g", res.TotalWaitMS, 3*svc)
	}
}

func TestOpenLoopBurstAbsorption(t *testing.T) {
	// The defining open-loop property: a power-management delay does
	// NOT stretch later arrivals. Compare closed vs open on the same
	// trace with an oracle policy (no delays: both agree) and with a
	// deliberately slow reactive policy.
	p := disk.DefaultParams()
	tr := arrivalTrace(2, []float64{0, 80, 160, 240, 320}, []int{0, 1, 0, 1, 0})
	closed, err := Run(tr, Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	open, err := RunOpenLoop(tr, Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	// Closed-loop execution adds each request's service to the
	// application timeline; open-loop replay overlaps service with
	// the inter-arrival gaps, so it can only finish earlier.
	if open.ExecMS > closed.ExecMS+1e-9 {
		t.Errorf("open %g slower than closed %g without PM", open.ExecMS, closed.ExecMS)
	}
	// Specifically: open completes at the last arrival plus one
	// service; closed accumulates all five services.
	svc := p.ServiceTimeMS(p.MaxRPM, 65536)
	if math.Abs(open.ExecMS-(320+svc)) > 1e-9 {
		t.Errorf("open ExecMS = %g", open.ExecMS)
	}
	if math.Abs(closed.ExecMS-(320+5*svc)) > 1e-9 {
		t.Errorf("closed ExecMS = %g", closed.ExecMS)
	}
}

func TestOpenLoopOraclePolicy(t *testing.T) {
	p := disk.DefaultParams()
	tr := arrivalTrace(2, []float64{0, 80, 160, 240, 320, 400}, []int{0, 1, 0, 1, 0, 1})
	base, err := RunOpenLoop(tr, Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	pol := &testOraclePolicy{p: p}
	res, err := RunOpenLoop(tr, Config{Disk: p, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyJ >= base.EnergyJ {
		t.Errorf("oracle saved nothing in open loop: %g >= %g", res.EnergyJ, base.EnergyJ)
	}
	if math.Abs(res.ExecMS-base.ExecMS) > 1e-6 {
		t.Errorf("oracle changed open-loop completion: %g vs %g", res.ExecMS, base.ExecMS)
	}
	if res.Scheme != "test-oracle/open" {
		t.Errorf("scheme = %q", res.Scheme)
	}
}

func TestOpenLoopInvalid(t *testing.T) {
	p := disk.DefaultParams()
	bad := p
	bad.RPMStep = 0
	tr := arrivalTrace(1, []float64{0}, []int{0})
	if _, err := RunOpenLoop(tr, Config{Disk: bad}); err == nil {
		t.Error("bad params accepted")
	}
	badTr := arrivalTrace(1, []float64{0}, []int{5})
	if _, err := RunOpenLoop(badTr, Config{Disk: p}); err == nil {
		t.Error("bad trace accepted")
	}
}

// TestOpenLoopCompiled: the trace's own compiled form spares open-loop
// replay the validation walk and sizes its idle lists without changing
// the result, and a form compiled from another trace vouches for
// nothing: an invalid trace still gets its validation error.
func TestOpenLoopCompiled(t *testing.T) {
	p := disk.DefaultParams()
	tr := arrivalTrace(2, []float64{0, 80, 160, 240, 320, 400}, []int{0, 1, 0, 1, 0, 1})
	run := func(comp *trace.Compiled) *Result {
		t.Helper()
		res, err := RunOpenLoop(tr, Config{Disk: p, Policy: &testOraclePolicy{p: p}, RecordIdles: true, Compiled: comp})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(nil)
	if got := run(trace.Compile(tr)); !reflect.DeepEqual(got, want) {
		t.Errorf("compiled form changed the result:\n%+v\nwant\n%+v", got, want)
	}
	for d, idles := range want.Idles {
		if len(idles) != 4 {
			t.Errorf("disk %d: %d idle periods, want 3 requests + the trailing one", d, len(idles))
		}
	}

	other := arrivalTrace(2, []float64{0, 80}, []int{0, 1})
	bad := arrivalTrace(2, []float64{0, 80}, []int{0, 5})
	wantErr := bad.Validate()
	for _, comp := range []*trace.Compiled{trace.Compile(other), trace.Compile(bad)} {
		if _, err := RunOpenLoop(bad, Config{Disk: p, Policy: &testOraclePolicy{p: p}, Compiled: comp}); err == nil || err.Error() != wantErr.Error() {
			t.Errorf("invalid trace: err = %v, want %v", err, wantErr)
		}
	}
}
