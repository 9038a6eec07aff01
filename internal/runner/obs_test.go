package runner

import (
	"errors"
	"testing"
	"time"

	"sdpm/internal/obs"
)

func TestMapObservesTasksAndGauges(t *testing.T) {
	for _, workers := range []int{1, 4} {
		c := obs.New()
		p := New(workers).Observe(c)
		const n = 9
		err := p.Map(n, func(i int) error {
			time.Sleep(time.Millisecond)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		tasks, busyNS, active, queued := c.Value(obs.RunnerTasks), c.Value(obs.RunnerBusyNS), c.Value(obs.RunnerActive), c.Value(obs.RunnerQueue)
		if tasks != n {
			t.Errorf("workers=%d: tasks = %d, want %d", workers, tasks, n)
		}
		if busyNS <= 0 {
			t.Errorf("workers=%d: busyNS = %d, want > 0", workers, busyNS)
		}
		if active != 0 || queued != 0 {
			t.Errorf("workers=%d: gauges not drained after Map: active=%d queued=%d", workers, active, queued)
		}
	}
}

func TestMapSequentialErrorDrainsQueueGauge(t *testing.T) {
	c := obs.New()
	boom := errors.New("boom")
	err := New(1).Observe(c).Map(8, func(i int) error {
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	tasks, active, queued := c.Value(obs.RunnerTasks), c.Value(obs.RunnerActive), c.Value(obs.RunnerQueue)
	if tasks != 3 { // cells 0, 1, and the failing 2 ran
		t.Errorf("tasks = %d, want 3", tasks)
	}
	if active != 0 || queued != 0 {
		t.Errorf("gauges not drained after early error: active=%d queued=%d", active, queued)
	}
}

func TestMapNilCollectorAndNilPool(t *testing.T) {
	// Observe(nil) and a nil pool must both stay no-ops.
	if err := New(2).Observe(nil).Map(4, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	var p *Pool
	if err := p.Observe(obs.New()).Map(4, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}
