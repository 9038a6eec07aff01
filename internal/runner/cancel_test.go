package runner

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sdpm/internal/obs"
)

func TestMapCanceledBeforeStart(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ran atomic.Int64
		err := New(workers).WithContext(ctx).Map(16, func(i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: %d cells ran on a dead context", workers, ran.Load())
		}
	}
}

func TestMapCancelStopsClaims(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		const n = 1000
		var ran atomic.Int64
		err := New(workers).WithContext(ctx).Map(n, func(i int) error {
			ran.Add(1)
			if i == 0 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// In-flight cells finish, but once every worker has observed the
		// cancellation no further cells are claimed — far fewer than n.
		if got := ran.Load(); got >= n/2 {
			t.Errorf("workers=%d: %d of %d cells ran after cancellation", workers, got, n)
		}
	}
}

func TestMapCancelKeepsLowestErrorPrecedence(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		err := New(workers).WithContext(ctx).Map(64, func(i int) error {
			if i == 0 {
				cancel()
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want the cell error, not the cancellation", workers, err)
		}
	}
}

func TestMapCancelDrainsGaugesAndGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	c := obs.New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 500
	err := New(4).Observe(c).WithContext(ctx).Map(n, func(i int) error {
		if i == 0 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	active, queued := c.Value(obs.RunnerActive), c.Value(obs.RunnerQueue)
	if active != 0 || queued != 0 {
		t.Errorf("gauges not drained after cancellation: active=%d queued=%d", active, queued)
	}
	// Helper goroutines must all have exited: no leak survives Map.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked across canceled Map: %d -> %d", before, after)
	}
}

func TestWithContextNilIsNoOp(t *testing.T) {
	p := New(2)
	if q := p.WithContext(nil); q != p {
		t.Error("WithContext(nil) should return the receiver")
	}
	var nilPool *Pool
	if q := nilPool.WithContext(context.Background()); q != nil {
		t.Error("nil pool WithContext should stay nil")
	}
	// A context on a live pool with no cancellation changes nothing.
	if err := p.WithContext(context.Background()).Map(8, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}
