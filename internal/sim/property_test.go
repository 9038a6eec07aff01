package sim_test

import (
	"math"
	"math/rand"
	"testing"

	"sdpm/internal/disk"
	"sdpm/internal/policy"
	"sdpm/internal/sim"
	"sdpm/internal/trace"
)

// randomTrace builds a random but valid request trace.
func randomTrace(rng *rand.Rand, nd, n int) *trace.Trace {
	tr := &trace.Trace{Program: "rand", NumDisks: nd}
	arr := 0.0
	for i := 0; i < n; i++ {
		gap := rng.Float64() * 120
		arr += gap
		sz := int64(512 * (1 + rng.Intn(256)))
		tr.Events = append(tr.Events, trace.Event{
			Kind:  trace.EvRequest,
			GapMS: gap,
			Req: trace.Request{
				ArrivalMS: arr,
				Disk:      int32(rng.Intn(nd)),
				Block:     int64(rng.Intn(1 << 20)),
				Bytes:     sz,
				Kind:      trace.ReqKind(rng.Intn(2)),
			},
		})
	}
	return tr
}

// TestSimulatorInvariantsRandomTraces drives the simulator with
// randomized traces under every policy and checks global invariants:
//
//   - energy bounded below by all-standby and above by all-active;
//   - per-disk time components sum to the execution time;
//   - oracle policies never increase energy or execution time;
//   - execution time at least the sum of gaps plus services.
func TestSimulatorInvariantsRandomTraces(t *testing.T) {
	p := disk.DefaultParams()
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 25; trial++ {
		nd := 1 + rng.Intn(8)
		tr := randomTrace(rng, nd, 20+rng.Intn(200))
		base, err := sim.Run(tr, sim.Config{Disk: p})
		if err != nil {
			t.Fatal(err)
		}

		var minGapSvc float64
		for _, e := range tr.Events {
			minGapSvc += e.GapMS + p.ServiceTimeMS(p.MaxRPM, e.Req.Bytes)
		}
		if base.ExecMS < minGapSvc-1e-6 {
			t.Fatalf("trial %d: exec %.3f below lower bound %.3f", trial, base.ExecMS, minGapSvc)
		}

		pols := []sim.Policy{
			policy.NewBase(),
			policy.NewTPM(p),
			policy.NewITPM(p),
			policy.NewDRPM(p),
			policy.NewIDRPM(p),
		}
		for _, pol := range pols {
			res, err := sim.Run(tr, sim.Config{Disk: p, Policy: pol})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, pol.Name(), err)
			}
			// The fitted DRPM curve's minimum-RPM idle power sits
			// slightly below the standby draw, so the true floor is
			// the smaller of the two.
			floorW := math.Min(p.StandbyW, p.IdlePowerAt(p.MinRPM))
			lower := floorW * res.ExecMS / 1e3 * float64(nd)
			upper := p.ActiveW*res.ExecMS/1e3*float64(nd) +
				p.SpinUpJ*float64(res.Requests) // transitions can exceed active draw briefly
			if res.EnergyJ < lower-1e-6 || res.EnergyJ > upper+1e-6 {
				t.Fatalf("trial %d %s: energy %.3f outside [%.3f, %.3f]",
					trial, pol.Name(), res.EnergyJ, lower, upper)
			}
			for d, st := range res.Disks {
				total := st.ActiveMS + st.IdleMS + st.StandbyMS + st.TransitionMS
				// Committed segments may run slightly past the end
				// when a transition is still in flight at program
				// end; never below.
				if total < res.ExecMS-1e-6 {
					t.Fatalf("trial %d %s disk %d: time sum %.3f below exec %.3f",
						trial, pol.Name(), d, total, res.ExecMS)
				}
				if st.EnergyJ < 0 {
					t.Fatalf("negative disk energy")
				}
			}
			switch pol.Name() {
			case "ITPM", "IDRPM":
				if res.EnergyJ > base.EnergyJ+1e-6 {
					t.Fatalf("trial %d: %s energy %.3f above base %.3f",
						trial, pol.Name(), res.EnergyJ, base.EnergyJ)
				}
				if math.Abs(res.ExecMS-base.ExecMS) > 1e-6 {
					t.Fatalf("trial %d: %s changed exec time", trial, pol.Name())
				}
			case "Base":
				if math.Abs(res.EnergyJ-base.EnergyJ) > 1e-9 {
					t.Fatalf("base policy diverged from nil policy")
				}
			}
		}
	}
}

// TestOpenLoopInvariantsRandomTraces checks the open-loop replayer on
// the same random traces: completion never before the last arrival,
// oracle saves energy without moving completions.
func TestOpenLoopInvariantsRandomTraces(t *testing.T) {
	p := disk.DefaultParams()
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 15; trial++ {
		nd := 1 + rng.Intn(6)
		tr := randomTrace(rng, nd, 20+rng.Intn(120))
		base, err := sim.RunOpenLoop(tr, sim.Config{Disk: p})
		if err != nil {
			t.Fatal(err)
		}
		lastArrival := tr.Events[len(tr.Events)-1].Req.ArrivalMS
		if base.ExecMS < lastArrival {
			t.Fatalf("trial %d: completion %.3f before last arrival %.3f", trial, base.ExecMS, lastArrival)
		}
		id, err := sim.RunOpenLoop(tr, sim.Config{Disk: p, Policy: policy.NewIDRPM(p)})
		if err != nil {
			t.Fatal(err)
		}
		if id.EnergyJ > base.EnergyJ+1e-6 {
			t.Fatalf("trial %d: open-loop IDRPM energy above base", trial)
		}
		if math.Abs(id.ExecMS-base.ExecMS) > 1e-6 {
			t.Fatalf("trial %d: open-loop IDRPM moved completion", trial)
		}
	}
}
