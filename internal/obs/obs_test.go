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
	c.ObserveRequest(0, 1, 2, 3)
	c.ObserveResidency(0, StateIdle, 15000, 5)
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

func TestEnsureDisksGrowsAndKeeps(t *testing.T) {
	c := New()
	c.EnsureDisks(2, 3000, 1200, 11)
	c.ObserveResidency(1, StateIdle, 3000, 7)
	c.EnsureDisks(4, 3000, 1200, 11) // grow; disk 1 data must survive
	c.EnsureDisks(1, 3000, 1200, 11) // shrink request is a no-op
	if c.NumDisks() != 4 {
		t.Fatalf("NumDisks = %d, want 4", c.NumDisks())
	}
	if got := c.disk(1).rpmMS[0].Load(); got != 7 {
		t.Fatalf("disk1 rpm residency lost on grow: %g", got)
	}
	// Out-of-range disk and off-grid RPM must not panic.
	c.ObserveRequest(99, 1, 0, 0)
	c.ObserveResidency(0, StateIdle, 3001, 1)
	if got := c.disk(0).otherMS.Load(); got != 1 {
		t.Fatalf("off-grid residency = %g, want 1", got)
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
			for i := 0; i < 1000; i++ {
				c.ObserveRequest(i%2, 1.5, 0, 10)
				c.ObserveResidency(i%2, StateIdle, 15000, 0.25)
				c.Add(OpSetRPM, 1)
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
