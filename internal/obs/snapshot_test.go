package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSnapshotConsistentUnderWriters is the torn-total regression
// test: while writers hammer the collector, every snapshot must
// satisfy Count == sum(Buckets) for each histogram — the invariant a
// direct _count atomic read cannot guarantee mid-scrape.
func TestSnapshotConsistentUnderWriters(t *testing.T) {
	c := New()
	c.EnsureDisks(2, 4200, 600, 8)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				r := c.StartRun(2, 4200, 600, 8)
				for j := 0; j <= i%5; j++ {
					r.ObserveRequest(float64(i%7), float64(j%3), float64(i%1000))
					r.Add(MissOnDemand+Metric(j%2), 1)
				}
				a := DiskAccount{Requests: i%5 + 1, StateMS: [numDiskStates]float64{StateIdle: 1.5}, RPMMS: make([]float64, 8)}
				a.RPMMS[i%8] = 1.5
				a.Ops[i%3]++
				a.Faults[i%6]++
				r.AddDisk(i%2, &a)
				r.Publish()
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		s := c.Snapshot()
		for name, h := range map[string]*HistogramSnapshot{
			"service": s.hist(ServiceMS), "wait": s.hist(WaitMS), "idle": s.hist(IdleMS),
		} {
			var sum int64
			for _, b := range h.Buckets {
				sum += b
			}
			if sum != h.Count {
				t.Errorf("snapshot %d: %s histogram torn: count %d != bucket sum %d", i, name, h.Count, sum)
			}
		}
	}
	stop.Store(true)
	wg.Wait()

	// A concurrent Prometheus render must also hold the invariant:
	// the +Inf cumulative bucket equals _count for every histogram.
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, c); err != nil {
		t.Fatal(err)
	}
	checkExpositionTotals(t, buf.String())
}

// checkExpositionTotals parses the exposition's histogram lines and
// asserts each family's +Inf bucket equals its _count.
func checkExpositionTotals(t *testing.T, text string) {
	t.Helper()
	inf := make(map[string]string)
	count := make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, `_bucket{le="+Inf"}`) {
			name := line[:strings.Index(line, "_bucket")]
			inf[name] = line[strings.LastIndex(line, " ")+1:]
		} else if i := strings.Index(line, "_count "); i >= 0 && !strings.HasPrefix(line, "#") {
			count[line[:i]] = line[i+len("_count "):]
		}
	}
	if len(inf) == 0 || len(inf) != len(count) {
		t.Fatalf("exposition parse found %d +Inf buckets, %d counts", len(inf), len(count))
	}
	for name, v := range inf {
		if count[name] != v {
			t.Errorf("%s: +Inf bucket %s != count %s", name, v, count[name])
		}
	}
}

func TestSnapshotValues(t *testing.T) {
	c := New()
	c.EnsureDisks(1, 6000, 1200, 4)
	r := c.StartRun(1, 6000, 600, 7)
	r.ObserveRequest(3, 0, 120)
	r.ObserveRequest(4, 50, 9000)
	r.AddDisk(0, &DiskAccount{
		Requests: 2,
		StateMS:  [numDiskStates]float64{StateService: 7, StateIdle: 1, StateStandby: 300},
		RPMMS:    []float64{7, 1}, // 6600 rpm is off the collector's grid -> other
		Ops:      [...]int{1, 0, 0},
		Faults:   [...]int{0, 0, 0, 0, 1, 0},
	})
	r.Add(MissOnDemand, 1)
	r.Publish()
	c.Add(CacheHits, 1)
	c.Add(RunnerTasks, 1)
	c.Add(RunnerBusyNS, 2e9)
	c.Add(RunnerQueue, 3)
	c.Add(CellRetries, 1)
	c.Add(JournalHits, 1)

	s := c.Snapshot()
	if s.vals[SimRuns] != 1 || s.vals[Requests] != 2 {
		t.Fatalf("runs/requests = %d/%d", s.vals[SimRuns], s.vals[Requests])
	}
	if h := s.hist(ServiceMS); h.Count != 2 || h.Sum != 7 {
		t.Fatalf("service histogram = %+v", h)
	}
	if s.vals[OpSpinDown] != 1 || s.vals[OpSpinUp] != 0 {
		t.Fatalf("power ops = %d/%d", s.vals[OpSpinDown], s.vals[OpSpinUp])
	}
	if s.vals[MissOnDemand] != 1 || s.vals[MissInflight] != 0 {
		t.Fatalf("misses = %d/%d", s.vals[MissOnDemand], s.vals[MissInflight])
	}
	if s.vals[FaultRemap] != 1 {
		t.Fatalf("remap faults = %d", s.vals[FaultRemap])
	}
	if len(s.Disks) != 1 {
		t.Fatalf("disks = %d", len(s.Disks))
	}
	d := s.Disks[0]
	if d.Requests != 2 || d.StateMS["service"] != 7 || d.StateMS["standby"] != 300 {
		t.Fatalf("disk snapshot = %+v", d)
	}
	if d.RPMMS[6000] != 7 || d.OtherMS != 1 {
		t.Fatalf("rpm residency = %v other %v", d.RPMMS, d.OtherMS)
	}
	if s.vals[CacheHits] != 1 || s.vals[RunnerTasks] != 1 || s.vals[RunnerBusyNS] != 2e9 || s.vals[RunnerQueue] != 3 {
		t.Fatalf("engine counters: %+v", s)
	}
	if s.vals[CellRetries] != 1 || s.vals[JournalHits] != 1 {
		t.Fatalf("cell/journal counters: %+v", s)
	}

	// The snapshot is the /status body; it must marshal cleanly with
	// integer-keyed RPM maps becoming string keys.
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"6000":7`) {
		t.Fatalf("marshalled snapshot lacks rpm residency: %s", b)
	}
}

func TestSnapshotNil(t *testing.T) {
	var c *Collector
	s := c.Snapshot()
	if s.vals[Requests] != 0 || len(s.Disks) != 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
	// Labeled families render every label (with zeros), so /status
	// readers need no missing-key checks.
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"spin_up":0`) {
		t.Fatalf("nil snapshot lacks power-op labels: %s", b)
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil collector rendered %d bytes", buf.Len())
	}
}

// TestPrometheusSnapshotRender pins the snapshot-rendered exposition
// to the same shape the pre-snapshot exporter produced.
func TestPrometheusSnapshotRender(t *testing.T) {
	c := New()
	r := c.StartRun(1, 6000, 1200, 2)
	r.ObserveRequest(3, 0, 120)
	r.AddDisk(0, &DiskAccount{Requests: 1, StateMS: [numDiskStates]float64{StateIdle: 10}, RPMMS: []float64{10, 0}})
	r.Publish()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"sdpm_requests_total 1\n",
		fmt.Sprintf("sdpm_request_service_ms_bucket{le=%q} 1\n", "5"),
		"sdpm_request_service_ms_sum 3\n",
		"sdpm_request_service_ms_count 1\n",
		"sdpm_disk_rpm_ms_total{disk=\"0\",rpm=\"6000\"} 10\n",
		"sdpm_disk_state_ms_total{disk=\"0\",state=\"idle\"} 10\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
