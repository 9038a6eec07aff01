package core

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"sdpm/internal/faults"
	"sdpm/internal/obs"
	"sdpm/internal/sim"
	"sdpm/internal/workloads"
)

// TestCollectorMatchesResult cross-checks the metrics one run
// publishes into a fresh collector against the run's own accounting
// in its Result, for every scheme (closed loop, and open loop where
// the scheme supports it), without faults and under the moderate
// preset, with batching on and off. Integer series must be equal and
// residency must be bit-equal: the collector sees exactly the
// increments the simulator books, in the same order. The batched and
// the general closed-loop Results must be equal as well, down to the
// last bit: these are the six benchmarks' real, jittered traces, which
// TestBatchDifferential's synthetic ones only imitate.
func TestCollectorMatchesResult(t *testing.T) {
	benches := workloads.Names()
	if testing.Short() {
		benches = benches[:1]
	}
	moderate, _ := faults.Preset("moderate")
	faulted := 0
	for _, name := range benches {
		for _, fc := range []struct {
			name string
			cfg  faults.Config
		}{{"nofaults", faults.Config{}}, {"moderate", moderate}} {
			b, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Model = b.Model()
			cfg.CacheUnits = b.CacheUnits
			cfg.Faults = fc.cfg
			cfg.FaultSeed = 3
			in, err := Prepare(name, b.Program, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			batched := map[Scheme]*sim.Result{}
			for _, batch := range []bool{true, false} {
				for _, s := range AllSchemes() {
					run := func(open bool) *sim.Result {
						c := obs.New()
						in.Obs = c
						run, label := in.Run, string(s)
						if !batch {
							run = func(s Scheme) (*sim.Result, error) { return runUnbatched(in, s) }
						}
						if open {
							run, label = in.RunOpen, label+"/open"
						}
						res, err := run(s)
						if err != nil {
							t.Fatalf("%s/%s/%s batch=%v: %v", name, fc.name, label, batch, err)
						}
						checkCollector(t, c, res, name+"/"+fc.name+"/"+label)
						for _, d := range res.Disks {
							faulted += d.SpinUpFailures + d.RemapHits + d.DegradedHits
						}
						return res
					}
					res := run(false)
					if batch {
						batched[s] = res
					} else if !reflect.DeepEqual(res, batched[s]) {
						t.Errorf("%s/%s/%s: batched and general results differ (energy %v vs %v, exec %v vs %v)",
							name, fc.name, s, batched[s].EnergyJ, res.EnergyJ, batched[s].ExecMS, res.ExecMS)
					}
					if s != CMTPM && s != CMDRPM {
						run(true)
					}
				}
			}
			in.Obs = nil
		}
	}
	if faulted == 0 {
		t.Error("no run saw an injected fault; the fault-series checks are vacuous")
	}
}

// runUnbatched is Instance.Run through the simulator's general
// per-request path, its result labelled as Instance.Run labels it.
func runUnbatched(in *Instance, s Scheme) (*sim.Result, error) {
	tr, cfg, err := in.simConfig(s)
	if err != nil {
		return nil, err
	}
	cfg.DisableBatch = true
	res, err := sim.Run(tr, cfg)
	if err != nil {
		return nil, err
	}
	res.Scheme = string(s)
	res.Program = in.Name
	return res, nil
}

// checkCollector asserts that c, fed by the single run res, agrees
// with res: every integer series equals the run's counts, and the
// per-disk state and RPM residency are bit-equal to its DiskStats.
// The collector's RPM grid must be the run's own.
func checkCollector(t *testing.T, c *obs.Collector, res *sim.Result, what string) {
	t.Helper()
	var st sim.DiskStats
	for _, d := range res.Disks {
		st.SpinDowns += d.SpinDowns
		st.SpinUps += d.SpinUps
		st.RPMShifts += d.RPMShifts
		st.SpinUpFailures += d.SpinUpFailures
		st.SpinUpRetries += d.SpinUpRetries
		st.SpinUpTimeouts += d.SpinUpTimeouts
		st.Fallbacks += d.Fallbacks
		st.RemapHits += d.RemapHits
		st.DegradedHits += d.DegradedHits
	}
	for m, want := range map[obs.Metric]int{
		obs.SimRuns:         1,
		obs.Requests:        res.Requests,
		obs.OpSpinDown:      st.SpinDowns,
		obs.OpSpinUp:        st.SpinUps,
		obs.OpSetRPM:        st.RPMShifts,
		obs.FaultSpinUpFail: st.SpinUpFailures,
		obs.FaultRetry:      st.SpinUpRetries,
		obs.FaultTimeout:    st.SpinUpTimeouts,
		obs.FaultFallback:   st.Fallbacks,
		obs.FaultRemap:      st.RemapHits,
		obs.FaultDegraded:   st.DegradedHits,
	} {
		if got := c.Value(m); got != int64(want) {
			t.Errorf("%s: metric %d (%s) = %d, want %d", what, m, m.Label(), got, want)
		}
	}
	snap := c.Snapshot()
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Service struct{ Count int64 } `json:"service_ms"`
		Wait    struct{ Count int64 } `json:"wait_ms"`
		Idle    struct{ Count int64 } `json:"idle_ms"`
	}
	if err := json.Unmarshal(raw, &status); err != nil {
		t.Fatal(err)
	}
	for _, h := range []struct {
		name  string
		count int64
	}{{"service_ms", status.Service.Count}, {"wait_ms", status.Wait.Count}, {"idle_ms", status.Idle.Count}} {
		if h.count != int64(res.Requests) {
			t.Errorf("%s: %s count = %d, want %d requests", what, h.name, h.count, res.Requests)
		}
	}
	if len(snap.Disks) != len(res.Disks) {
		t.Fatalf("%s: collector has %d disks, run %d", what, len(snap.Disks), len(res.Disks))
	}
	for d, ds := range res.Disks {
		got := snap.Disks[d]
		if got.Requests != int64(ds.Requests) {
			t.Errorf("%s: disk %d requests = %d, want %d", what, d, got.Requests, ds.Requests)
		}
		for _, r := range []struct {
			state string
			want  float64
		}{{"service", ds.ActiveMS}, {"idle", ds.IdleMS}, {"standby", ds.StandbyMS}} {
			if g := got.StateMS[r.state]; math.Float64bits(g) != math.Float64bits(r.want) {
				t.Errorf("%s: disk %d %s residency = %v, want %v", what, d, r.state, g, r.want)
			}
		}
		if len(got.RPMMS) != len(ds.RPMResidencyMS) || got.OtherMS != 0 {
			t.Errorf("%s: disk %d RPM residency = %v other %v, want %v", what, d, got.RPMMS, got.OtherMS, ds.RPMResidencyMS)
		}
		for rpm, want := range ds.RPMResidencyMS {
			if g, ok := got.RPMMS[rpm]; !ok || math.Float64bits(g) != math.Float64bits(want) {
				t.Errorf("%s: disk %d residency at %d rpm = %v, want %v", what, d, rpm, g, want)
			}
		}
	}
}

// TestCollectorGridFromOtherParams: a collector whose per-disk RPM
// grid was sized from another disk model keeps that grid. Residency
// at a level both grids share stays bit-equal to the run's, and the
// levels the collector's grid lacks add up in other.
func TestCollectorGridFromOtherParams(t *testing.T) {
	in := prepBench(t, "wupwise")
	other := in.Cfg.Disk
	other.RPMStep *= 2 // every other level of the run's grid
	if err := other.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheme{DRPM, IDRPM, CMDRPM} {
		c := obs.New()
		c.EnsureDisks(in.Cfg.NumDisks, other.MinRPM, other.RPMStep, other.NumLevels())
		in.Obs = c
		res, err := in.Run(s)
		in.Obs = nil
		if err != nil {
			t.Fatal(err)
		}
		snap := c.Snapshot()
		var offGrid int
		for d, ds := range res.Disks {
			got := snap.Disks[d]
			wantOther := 0.0
			for rpm, ms := range ds.RPMResidencyMS {
				if other.LevelIndex(rpm) >= 0 {
					if g := got.RPMMS[rpm]; math.Float64bits(g) != math.Float64bits(ms) {
						t.Errorf("%s: disk %d residency at %d rpm = %v, want %v", s, d, rpm, g, ms)
					}
					continue
				}
				wantOther += ms
				offGrid++
			}
			if math.Abs(got.OtherMS-wantOther) > 1e-9*math.Max(1, wantOther) {
				t.Errorf("%s: disk %d other residency = %v, want %v", s, d, got.OtherMS, wantOther)
			}
			for rpm := range got.RPMMS {
				if _, ok := ds.RPMResidencyMS[rpm]; !ok {
					t.Errorf("%s: disk %d has residency at %d rpm the run never used", s, d, rpm)
				}
			}
			if math.Float64bits(got.StateMS["idle"]) != math.Float64bits(ds.IdleMS) {
				t.Errorf("%s: disk %d idle residency = %v, want %v", s, d, got.StateMS["idle"], ds.IdleMS)
			}
		}
		if offGrid == 0 {
			t.Errorf("%s: the run used no level the collector's grid lacks; the check is vacuous", s)
		}
	}
}
