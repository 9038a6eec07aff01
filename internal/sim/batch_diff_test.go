package sim_test

// Differential property test for the batched steady-state executor:
// on randomized traces — varying disk counts, request mixes, gaps,
// embedded power ops, policies, and fault plans — the batched and the
// general per-request paths must produce identical Results, down to
// the last bit of every float. Any divergence is a correctness bug in
// the batching fast path, never acceptable drift. The test runs under
// `make race` (internal/sim is in the race list).

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sdpm/internal/disk"
	"sdpm/internal/faults"
	"sdpm/internal/obs/events"
	"sdpm/internal/policy"
	"sdpm/internal/sim"
	"sdpm/internal/trace"
)

// randomBatchTrace generates a trace of request stretches (any four
// or more in a row form a compiled run the fast path batches), broken
// up by embedded power ops. Stretches with a uniform gap and size, on
// one disk or round robin, sit next to stretches with jittered gaps
// (every benchmark trace jitters its gaps) on random disks with random
// sizes, and long idle gaps where a policy's horizon makes the
// executor bail out.
func randomBatchTrace(r *rand.Rand, nDisks int) *trace.Trace {
	tr := &trace.Trace{Program: "diff", NumDisks: nDisks}
	arrival := 0.0
	sizes := []int64{4096, 65536, 262144}
	block := int64(0)
	addReq := func(d int, gap float64, bytes int64) {
		arrival += gap
		kind := trace.Read
		if r.Intn(4) == 0 {
			kind = trace.Write
		}
		tr.Events = append(tr.Events, trace.Event{
			Kind:  trace.EvRequest,
			GapMS: gap,
			Req: trace.Request{
				ArrivalMS: arrival, Disk: int32(d), Block: block % (1 << 20),
				Bytes: bytes, Kind: kind,
			},
		})
		block += bytes / 512
	}
	p := disk.DefaultParams()
	for len(tr.Events) < 2500 {
		switch r.Intn(5) {
		case 0, 1: // uniform gap and size, one disk or round robin
			n := 4 + r.Intn(120)
			gap := []float64{0, 2, 7.5, 60, 300}[r.Intn(5)]
			bytes := sizes[r.Intn(len(sizes))]
			roundRobin := r.Intn(2) == 0
			d := r.Intn(nDisks)
			for i := 0; i < n; i++ {
				if roundRobin {
					d = i % nDisks
				}
				addReq(d, gap, bytes)
			}
		case 2: // jittered gaps, random disks and sizes
			n := 1 + r.Intn(30)
			for i := 0; i < n; i++ {
				addReq(r.Intn(nDisks), r.Float64()*40, sizes[r.Intn(len(sizes))])
			}
		case 3: // long-idle stretch (policy decision territory)
			n := 4 + r.Intn(10)
			for i := 0; i < n; i++ {
				addReq(r.Intn(nDisks), 1000+r.Float64()*14000, 65536)
			}
		case 4: // embedded power op
			d := r.Intn(nDisks)
			op := trace.PowerOp{Disk: int32(d)}
			switch r.Intn(3) {
			case 0:
				op.Kind = trace.OpSpinDown
			case 1:
				op.Kind = trace.OpSpinUp
			default:
				op.Kind = trace.OpSetRPM
				op.RPM = int32(p.MinRPM + r.Intn(p.NumLevels())*p.RPMStep)
				op.PredictedIdleMS = r.Float64() * 5000
			}
			tr.Events = append(tr.Events, trace.Event{
				Kind: trace.EvPowerOp, GapMS: r.Float64() * 5, Op: op,
			})
		}
	}
	return tr
}

// diffPolicy builds one fresh policy per name; fresh instances per
// run keep the stateful controllers (DRPM's window) independent.
func diffPolicy(name string, p disk.Params) sim.Policy {
	switch name {
	case "none":
		return nil
	case "base":
		return policy.NewBase()
	case "tpm":
		return policy.NewTPM(p)
	case "itpm":
		return policy.NewITPM(p)
	case "drpm":
		return policy.NewDRPM(p)
	case "idrpm":
		return policy.NewIDRPM(p)
	}
	panic("unknown policy " + name)
}

// TestBatchDifferential is the batched-vs-general equivalence sweep.
func TestBatchDifferential(t *testing.T) {
	p := disk.DefaultParams()
	moderate, err := faults.ParseSpec("moderate")
	if err != nil {
		t.Fatal(err)
	}
	policies := []string{"none", "base", "tpm", "itpm", "drpm", "idrpm"}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			nDisks := 1 + r.Intn(4)
			tr := randomBatchTrace(r, nDisks)
			comp := trace.Compile(tr)
			if len(comp.Runs) == 0 {
				t.Fatal("generated trace compiled to zero runs; the sweep would not exercise the fast path")
			}
			for _, pol := range policies {
				for _, withFaults := range []bool{false, true} {
					cfg := sim.Config{
						Disk:                p,
						PowerCallOverheadMS: sim.DefaultPowerCallOverheadMS,
						// Timeline + audit on every other seed: the audit
						// re-derives energy from the timeline, so a fast
						// path that drifted would fail twice over.
						RecordTimeline: seed%2 == 0,
						Audit:          seed%2 == 0,
					}
					if withFaults {
						plan, err := faults.New(seed, nDisks, moderate)
						if err != nil {
							t.Fatal(err)
						}
						cfg.Faults = plan
					}
					batched := cfg
					batched.Policy = diffPolicy(pol, p)
					batched.Compiled = comp
					want := cfg
					want.Policy = diffPolicy(pol, p)
					want.DisableBatch = true
					// Event tracing attached to the batched path must
					// change no result bit (the log only reads state).
					traced := cfg
					traced.Policy = diffPolicy(pol, p)
					traced.Compiled = comp
					traced.Events = events.NewLog(1 << 16)

					rb, errB := sim.Run(tr, batched)
					rg, errG := sim.Run(tr, want)
					rt, errT := sim.Run(tr, traced)
					if (errB == nil) != (errG == nil) || (errB == nil) != (errT == nil) {
						t.Fatalf("policy %s faults=%t: batched err=%v, general err=%v, traced err=%v", pol, withFaults, errB, errG, errT)
					}
					if errB != nil {
						continue
					}
					if !reflect.DeepEqual(rb, rt) {
						t.Errorf("policy %s faults=%t: event tracing perturbed the batched result", pol, withFaults)
					}
					if !reflect.DeepEqual(rb, rg) {
						t.Errorf("policy %s faults=%t: batched and general results differ", pol, withFaults)
						if rb.EnergyJ != rg.EnergyJ {
							t.Errorf("  EnergyJ %v vs %v", rb.EnergyJ, rg.EnergyJ)
						}
						if rb.ExecMS != rg.ExecMS {
							t.Errorf("  ExecMS %v vs %v", rb.ExecMS, rg.ExecMS)
						}
						if rb.TotalWaitMS != rg.TotalWaitMS {
							t.Errorf("  TotalWaitMS %v vs %v", rb.TotalWaitMS, rg.TotalWaitMS)
						}
					}
				}
			}
		})
	}
}

// TestRunIgnoresForeignCompiled hands Run a compiled form built from
// another trace with as many events. Run must ignore it: the 4-disk
// trace still serves 25 requests on each disk with the result of a
// run given no form, and an invalid trace is still rejected.
func TestRunIgnoresForeignCompiled(t *testing.T) {
	p := disk.DefaultParams()
	tr := hotTrace(4, 100, 2)
	want, err := sim.Run(tr, sim.Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	foreign := trace.Compile(hotTrace(1, 100, 2))
	got, err := sim.Run(tr, sim.Config{Disk: p, Compiled: foreign})
	if err != nil {
		t.Fatal(err)
	}
	for d, st := range got.Disks {
		if st.Requests != 25 {
			t.Errorf("disk %d served %d requests, want 25", d, st.Requests)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("a foreign compiled form changed the result: energy %v, want %v", got.EnergyJ, want.EnergyJ)
	}
	if !trace.Compile(tr).For(tr) || foreign.For(tr) {
		t.Error("Compiled.For does not tell a trace's own form from a foreign one")
	}

	bad := hotTrace(4, 100, 2)
	bad.Events[50].Req.Disk = 9
	if _, err := sim.Run(bad, sim.Config{Disk: p, Compiled: trace.Compile(tr)}); err == nil {
		t.Error("an invalid trace ran under a foreign compiled form")
	}
}
