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
// The simulation families arrive through one run's accumulator and
// its single publish, as a simulation delivers them. The runner busy
// time is chosen so that dividing by 1e9 and multiplying by 1e-9 give
// different float64 bits.
func goldenCollector() *Collector {
	c := New()
	r := c.StartRun(2, 3000, 1200, 11)
	r.ObserveRequest(0, 4.2, 0, 100)
	r.ObserveRequest(0, 0.5, 0.1, 0.2)
	r.ObserveRequest(1, 7.5, 12000, 60001)
	r.ObserveRequest(1, 0.3, 1e6, 400000)
	r.ObserveResidency(0, StateService, 15000, 10.1)
	r.ObserveResidency(0, StateIdle, 15000, 250.5)
	r.ObserveResidency(0, StateIdle, 4200, 0.1)
	r.ObserveResidency(0, StateSpinDown, 0, 6000)
	r.ObserveResidency(1, StateStandby, 0, 5000)
	r.ObserveResidency(1, StateSpinUp, 0, 10900)
	r.ObserveResidency(1, StateRPMShift, 9000, 0.2)
	r.ObserveResidency(1, StateIdle, 3001, 3)
	r.ObserveResidency(1, StateService, 3000, 0.7)
	for m, v := range map[Metric]int64{
		OpSpinDown: 1, OpSpinUp: 2, OpSetRPM: 3, MissOnDemand: 4, MissInflight: 5,
		FaultSpinUpFail: 6, FaultRetry: 7, FaultTimeout: 8, FaultFallback: 9, FaultRemap: 10, FaultDegraded: 11,
	} {
		r.Add(m, v)
	}
	r.Publish()
	c.StartRun(2, 3000, 1200, 11).Publish() // a second, empty run
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
