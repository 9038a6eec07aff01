package obs

import (
	"os"
	"strings"
	"sync"
	"testing"
)

// TestDocListsEveryFamily keeps docs/observability.md in step with
// the metric table: every family the table declares must be listed.
func TestDocListsEveryFamily(t *testing.T) {
	doc, err := os.ReadFile("../../docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range table {
		if d.name != "" && !strings.Contains(string(doc), "`"+d.name) {
			t.Errorf("docs/observability.md does not list %s", d.name)
		}
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.Add(SimRuns, 1)
	c.EnsureDisks(4, 3000, 1200, 11)
	r := c.StartRun(4, 3000, 1200, 11)
	if r.Attached() {
		t.Fatal("nil collector started a run")
	}
	r.ObserveRequest(1, 0, 0)
	r.AddDisk(0, &DiskAccount{Requests: 1, RPMMS: []float64{1}})
	r.Publish()
	c.Add(OpSpinDown, 1)
	c.Add(MissOnDemand, 1)
	c.Add(CacheHits, 1)
	c.Add(CacheMisses, 1)
	c.Add(CacheWaits, 1)
	c.Add(RunnerTasks, 1)
	c.Add(RunnerBusyNS, 10)
	c.Add(RunnerActive, 1)
	c.Add(RunnerQueue, 1)
	if c.Value(Requests) != 0 || c.NumDisks() != 0 {
		t.Fatal("nil collector reported data")
	}
	var sb strings.Builder
	if err := WritePrometheus(&sb, c); err != nil {
		t.Fatalf("WritePrometheus(nil): %v", err)
	}
	if sb.Len() != 0 {
		t.Fatalf("nil collector exposition not empty: %q", sb.String())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	vals := []float64{0, 0.5, 0.6, 10, 1e9}
	for _, v := range vals {
		h.Observe(v)
	}
	if h.Count() != int64(len(vals)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(vals))
	}
	if got := h.counts[0].Load(); got != 2 { // 0 and 0.5 both <= 0.5
		t.Errorf("bucket le=0.5 = %d, want 2", got)
	}
	if got := h.counts[len(bucketBoundsMS)].Load(); got != 1 { // 1e9 -> +Inf
		t.Errorf("+Inf bucket = %d, want 1", got)
	}
	want := 0.0
	for _, v := range vals {
		want += v
	}
	if h.Sum() != want {
		t.Errorf("sum = %g, want %g", h.Sum(), want)
	}
}

// disk returns disk d's accumulators.
func (c *Collector) disk(d int) *diskMetrics { return (*c.disks.Load())[d] }

func TestEnsureDisksGrowsAndKeeps(t *testing.T) {
	c := New()
	r := c.StartRun(2, 3000, 1200, 11)
	r.AddDisk(1, &DiskAccount{StateMS: [numDiskStates]float64{StateIdle: 7}, RPMMS: []float64{7}})
	r.Publish()
	c.EnsureDisks(4, 3000, 1200, 11) // grow; disk 1 data must survive
	c.EnsureDisks(1, 3000, 1200, 11) // shrink request is a no-op
	if c.NumDisks() != 4 {
		t.Fatalf("NumDisks = %d, want 4", c.NumDisks())
	}
	if got := c.disk(1).rpmMS[0].Load(); got != 7 {
		t.Fatalf("disk1 rpm residency lost on grow: %g", got)
	}
	// Out-of-range disks and off-grid RPM must not panic. The run's
	// grid starts at 3001, which the collector's disks lack.
	r = c.StartRun(1, 3001, 1200, 11)
	r.AddDisk(99, &DiskAccount{Requests: 1})
	r.AddDisk(-1, &DiskAccount{StateMS: [numDiskStates]float64{StateIdle: 1}, RPMMS: []float64{1}})
	r.AddDisk(0, &DiskAccount{StateMS: [numDiskStates]float64{StateIdle: 1}, RPMMS: []float64{1}})
	r.Publish()
	if got := c.disk(0).otherMS.Load(); got != 1 {
		t.Fatalf("off-grid residency = %g, want 1", got)
	}
	if got := c.Value(Requests); got != 1 {
		t.Fatalf("requests = %d, want 1", got)
	}
}

// TestRunGridFromAnotherModel: a run whose disk model has a different
// RPM grid than the one the collector's disks were created with sends
// the RPMs the collector's grid lacks to other, exactly as a per-event
// collector would.
func TestRunGridFromAnotherModel(t *testing.T) {
	c := New()
	c.EnsureDisks(1, 3000, 1200, 11)
	r := c.StartRun(1, 3600, 600, 20) // ignored: disk 0 keeps its grid
	r.AddDisk(0, &DiskAccount{
		StateMS: [numDiskStates]float64{StateService: 3, StateIdle: 2.5, StateStandby: 9},
		RPMMS:   []float64{0.5, 2, 3}, // 3600, 4200 and 4800 rpm
	})
	r.Publish()
	s := c.Snapshot()
	d := s.Disks[0]
	if d.RPMMS[4200] != 2 || d.RPMMS[4800] != 0 || d.OtherMS != 3.5 {
		t.Fatalf("rpm residency = %v other %v", d.RPMMS, d.OtherMS)
	}
	if d.StateMS["idle"] != 2.5 || d.StateMS["service"] != 3 || d.StateMS["standby"] != 9 {
		t.Fatalf("state residency = %v", d.StateMS)
	}
}

// TestRunPublishesOnce: nothing a run accumulates reaches the
// collector before AddDisk and Publish. AddDisk writes the disk's own
// series; the run's totals arrive with Publish. A new accumulator
// starts empty.
func TestRunPublishesOnce(t *testing.T) {
	c := New()
	r := c.StartRun(2, 3000, 1200, 11)
	r.ObserveRequest(3, 1, 20)
	r.Add(MissInflight, 1)
	if c.Value(MissInflight) != 0 || c.hists[histSlot[IdleMS]].Count() != 0 || c.disk(1).requests.Load() != 0 {
		t.Fatal("run metrics reached the collector before Publish")
	}
	if c.Value(SimRuns) != 1 {
		t.Fatalf("sim runs = %d at run start, want 1", c.Value(SimRuns))
	}
	r.AddDisk(1, &DiskAccount{
		Requests: 1,
		StateMS:  [numDiskStates]float64{StateService: 3},
		RPMMS:    levels(3000, 1200, 11, map[int]float64{15000: 3}),
		Ops:      [...]int{0, 2, 0},
	})
	if c.disk(1).requests.Load() != 1 {
		t.Fatal("AddDisk did not write the disk's series")
	}
	if c.Value(Requests) != 0 || c.Value(OpSpinUp) != 0 {
		t.Fatal("run totals reached the collector before Publish")
	}
	r.Publish()
	for i := 0; i < 3; i++ {
		r = c.StartRun(2, 3000, 1200, 11)
		r.Publish()
	}
	s := c.Snapshot()
	if s.vals[Requests] != 1 || s.vals[OpSpinUp] != 2 || s.vals[MissInflight] != 1 || s.vals[SimRuns] != 4 {
		t.Fatalf("requests/spin-ups/misses/runs = %d/%d/%d/%d", s.vals[Requests], s.vals[OpSpinUp], s.vals[MissInflight], s.vals[SimRuns])
	}
	if h := s.hist(IdleMS); h.Count != 1 || h.Sum != 20 || h.Buckets[5] != 1 {
		t.Fatalf("idle histogram = %+v", h)
	}
	if n := c.hists[histSlot[IdleMS]].Count(); n != 1 {
		t.Fatalf("idle histogram Count() = %d, want 1", n)
	}
	if d := s.Disks[1]; d.Requests != 1 || d.StateMS["service"] != 3 || d.RPMMS[15000] != 3 {
		t.Fatalf("disk 1 = %+v", d)
	}
}

func TestCollectorConcurrentUse(t *testing.T) {
	c := New()
	c.EnsureDisks(2, 3000, 1200, 11)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := 0; run < 10; run++ {
				r := c.StartRun(2, 3000, 1200, 11)
				for i := 0; i < 100; i++ {
					r.ObserveRequest(1.5, 0, 10)
				}
				for d := 0; d < 2; d++ {
					r.AddDisk(d, &DiskAccount{
						Requests: 50,
						StateMS:  [numDiskStates]float64{StateIdle: 12.5},
						RPMMS:    levels(3000, 1200, 11, map[int]float64{15000: 12.5}),
						Ops:      [...]int{0, 0, 50},
					})
				}
				r.Publish()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(Requests); got != 8000 {
		t.Errorf("requests = %d, want 8000", got)
	}
	if got := c.Value(OpSetRPM); got != 8000 {
		t.Errorf("set_rpm ops = %d, want 8000", got)
	}
	if got := c.hists[histSlot[ServiceMS]].Sum(); got != 8000*1.5 {
		t.Errorf("service sum = %g, want %g", got, 8000*1.5)
	}
}
