package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// goldenCollector touches every metric family with a distinct value:
// every power-op, misprediction and fault kind, two disks (one with
// off-grid RPM residency), every cache, runner, journal and serving
// counter and gauge, and every histogram, including its +Inf bucket.
// The simulation families arrive through one run's accumulator, its
// two disk accounts and its single publish, as a simulation delivers
// them. The run's RPM grid (3000 to 15000 by 600) is finer than the
// collector's disks' (by 1200), so its 3600 rpm level lands in
// rpm="other". The runner busy time is chosen so that dividing by 1e9
// and multiplying by 1e-9 give different float64 bits.
func goldenCollector() *Collector {
	c := New()
	c.EnsureDisks(2, 3000, 1200, 11)
	r := c.StartRun(2, 3000, 600, 21)
	r.ObserveRequest(4.2, 0, 100)
	r.ObserveRequest(0.5, 0.1, 0.2)
	r.ObserveRequest(7.5, 12000, 60001)
	r.ObserveRequest(0.3, 1e6, 400000)
	r.AddDisk(0, &DiskAccount{
		Requests: 2,
		StateMS:  [numDiskStates]float64{StateService: 10.1, StateIdle: 250.6, StateSpinDown: 6000},
		RPMMS:    levels(3000, 600, 21, map[int]float64{4200: 0.1, 15000: 260.6}),
		Ops:      [...]int{1, 0, 3},
		Faults:   [...]int{6, 0, 8, 0, 10, 0},
	})
	r.AddDisk(1, &DiskAccount{
		Requests: 2,
		StateMS:  [numDiskStates]float64{StateService: 0.7, StateIdle: 3, StateStandby: 5000, StateSpinUp: 10900, StateRPMShift: 0.2},
		RPMMS:    levels(3000, 600, 21, map[int]float64{3000: 0.7, 3600: 3}),
		Ops:      [...]int{0, 2, 0},
		Faults:   [...]int{0, 7, 0, 9, 0, 11},
	})
	r.Add(MissOnDemand, 4)
	r.Add(MissInflight, 5)
	r.Publish()
	r = c.StartRun(2, 3000, 600, 21) // a second, empty run
	r.Publish()
	for m, v := range map[Metric]int64{
		CacheHits: 7, CacheMisses: 8, CacheWaits: 9,
		RunnerTasks: 2, RunnerBusyNS: 2e9 + 3 + 1e9, RunnerActive: 2, RunnerQueue: 4, CellPanics: 10, CellRetries: 11,
		JournalHits: 12, JournalMisses: 13,
		ServeAccepted: 3, ServeShed: 2, ServeDeadline: 3, ServeCanceled: 4, ServeDrains: 5,
		ServeJournalErrors: 6, ServeJournalRecoveries: 7, ServeInflight: 1, ServeQueued: 2,
	} {
		c.Add(m, v)
	}
	for _, v := range []float64{0, 1.5, 40} {
		c.Observe(ServeWaitMS, v)
	}
	c.Observe(ServeMS, 12)
	c.Observe(ServeMS, 0.25)
	return c
}

// levels returns a run's per-level residency on the grid of n levels
// from minRPM in steps of step, with ms (rpm to milliseconds) filled
// in.
func levels(minRPM, step, n int, ms map[int]float64) []float64 {
	out := make([]float64, n)
	for rpm, v := range ms {
		out[(rpm-minRPM)/step] = v
	}
	return out
}

// TestPrometheusGolden pins the exact /metrics bytes of the golden
// collector.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, goldenCollector()); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition differs from testdata/metrics.prom:\n%s", buf.Bytes())
	}
}

// TestStatusGolden pins the /status metrics object of the golden
// collector as a JSON value: the same keys, nesting and values. Key
// order within an object is not part of the contract.
func TestStatusGolden(t *testing.T) {
	b, err := json.Marshal(goldenCollector().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("testdata/status.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("status JSON differs from testdata/status.json:\n%s", b)
	}
}
