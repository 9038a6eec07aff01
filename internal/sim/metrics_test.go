package sim_test

import (
	"math"
	"math/rand"
	"testing"

	"sdpm/internal/disk"
	"sdpm/internal/faults"
	"sdpm/internal/obs"
	"sdpm/internal/sim"
)

// TestCollectorTransitionResidency checks the collector's spindown,
// spinup and rpmshift residency, which the machine hands over from
// its split of TransitionMS, against the run's own timeline: each
// state's residency equals the summed durations of the timeline's
// segments in that status, and the three add up to TransitionMS. It
// runs reactive TPM and DRPM, and a trace's embedded power ops with
// no policy, each with and without injected faults.
func TestCollectorTransitionResidency(t *testing.T) {
	p := disk.DefaultParams()
	moderate, err := faults.ParseSpec("moderate")
	if err != nil {
		t.Fatal(err)
	}
	states := map[sim.Status]string{
		sim.StDown:  obs.StateSpinDown.String(),
		sim.StUp:    obs.StateSpinUp.String(),
		sim.StShift: obs.StateRPMShift.String(),
	}
	for _, tc := range []struct {
		pol string
		// want lists the states the run must spend time in, so the
		// comparison is not vacuous.
		want []sim.Status
	}{
		{"tpm", []sim.Status{sim.StDown, sim.StUp}},
		{"drpm", []sim.Status{sim.StShift}},
		{"none", []sim.Status{sim.StDown, sim.StUp, sim.StShift}},
	} {
		for _, withFaults := range []bool{false, true} {
			const nDisks = 3
			tr := randomBatchTrace(rand.New(rand.NewSource(5)), nDisks)
			coll := obs.New()
			cfg := sim.Config{
				Disk: p,
				// The reactive policies run on the trace's requests
				// alone; the embedded ops drive the policy-free run.
				Policy:              diffPolicy(tc.pol, p),
				PowerCallOverheadMS: sim.DefaultPowerCallOverheadMS,
				RecordTimeline:      true,
				Obs:                 coll,
			}
			if withFaults {
				if cfg.Faults, err = faults.New(5, nDisks, moderate); err != nil {
					t.Fatal(err)
				}
			}
			res, err := sim.Run(tr, cfg)
			if err != nil {
				t.Fatalf("%s faults=%v: %v", tc.pol, withFaults, err)
			}
			snap := coll.Snapshot()
			total := make(map[sim.Status]float64)
			for d, ds := range res.Disks {
				fromTimeline := make(map[sim.Status]float64)
				for _, seg := range res.Timelines[d] {
					fromTimeline[seg.Stat] += seg.EndMS - seg.StartMS
				}
				var sum float64
				for st, label := range states {
					got := snap.Disks[d].StateMS[label]
					if !near(got, fromTimeline[st]) {
						t.Errorf("%s faults=%v disk %d: %s residency %v, timeline %v", tc.pol, withFaults, d, label, got, fromTimeline[st])
					}
					sum += got
					total[st] += got
				}
				if !near(sum, ds.TransitionMS) {
					t.Errorf("%s faults=%v disk %d: transition residency sums to %v, TransitionMS %v", tc.pol, withFaults, d, sum, ds.TransitionMS)
				}
			}
			for _, st := range tc.want {
				if total[st] == 0 {
					t.Errorf("%s faults=%v: no time in %s; the check is vacuous", tc.pol, withFaults, states[st])
				}
			}
		}
	}
}

// near reports whether got equals want to a relative 1e-9.
func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Abs(want)
}
