// Package runner provides the bounded, deterministic worker pool the
// experiment drivers fan out on. Every table and figure of the
// paper's evaluation is an embarrassingly parallel grid of
// independent (benchmark, configuration, scheme) cells; the pool runs
// those cells concurrently while the callers reassemble results in
// canonical index order, so rendered output is byte-identical to a
// sequential run regardless of the worker count.
//
// Determinism contract:
//
//   - Map indexes identify cells; workers claim indexes from an
//     atomic counter, so scheduling order is arbitrary, but each
//     cell's result lands in its own slot and the caller reads the
//     slots in index order.
//   - Cell functions must not share mutable state except through
//     their own slot (or through concurrency-safe structures such as
//     core.Cache).
//   - On failure, Map always reports the error of the lowest failing
//     index — the same error a sequential loop would surface.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"sdpm/internal/obs"
	"sdpm/internal/obs/events"
)

// CellError converts a panicking cell into an ordinary cell failure:
// the panic is recovered inside the worker, wrapped with the cell's
// index and stack, and reported through Map's normal lowest-index
// error path. One bad cell therefore degrades that cell instead of
// crashing the whole sweep, and already-completed cells (for example,
// cells journaled by the experiment engine) keep their results.
type CellError struct {
	Index int    // the Map index that panicked
	Value any    // the recovered panic value
	Stack []byte // stack captured at the recovery point
}

func (e *CellError) Error() string {
	return fmt.Sprintf("runner: cell %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// Pool is a bounded worker pool. The zero value is not useful; use
// New. A nil *Pool runs everything sequentially on the caller.
type Pool struct {
	workers int
	// helpers holds tokens for the pool's helper goroutines
	// (workers-1 of them: the calling goroutine always participates,
	// which keeps nested Map calls deadlock-free — a caller that
	// cannot obtain helpers still makes progress inline).
	helpers chan struct{}
	// obs receives task counts, busy time, and the active-worker and
	// queue-depth gauges when non-nil (see Observe).
	obs *obs.Collector
	// ev receives cell-lifecycle events (retries, recovered panics)
	// when non-nil (see Trace).
	ev *events.Log
	// ctx, when non-nil, cancels Map early: in-flight cells finish,
	// unclaimed cells are skipped (see WithContext).
	ctx context.Context
	// retries, when positive, re-runs a failing cell up to that many
	// extra times before recording its error (see WithRetry).
	retries int
}

// New returns a pool bounded at the given number of workers.
// workers <= 0 selects GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, helpers: make(chan struct{}, workers-1)}
}

// Observe attaches a metrics collector to the pool and returns the
// pool (for chaining with New). Every Map cell then counts toward
// the collector's task total and busy time, and the active-worker
// and queue-depth gauges track the pool live. A nil collector (or a
// nil pool) is a no-op.
func (p *Pool) Observe(c *obs.Collector) *Pool {
	if p != nil {
		p.obs = c
	}
	return p
}

// Trace attaches a decision-provenance event log to the pool and
// returns the pool (for chaining with New, like Observe). Every cell
// retry and recovered panic is then recorded as a structured event
// carrying the cell index, alongside the collector's counters. Cell
// events carry no timestamp (TMS 0): wall-clock stamps would make
// otherwise-deterministic event logs differ run to run. A nil log
// (or a nil pool) is a no-op.
func (p *Pool) Trace(l *events.Log) *Pool {
	if p != nil {
		p.ev = l
	}
	return p
}

// WithContext returns a pool view whose Map calls observe ctx:
// cancellation stops workers from claiming further cells (cells
// already in flight run to completion — simulation cells are pure
// computation and finish fast) and Map returns the context's error.
// The view shares the receiver's helper bound and collector, so
// nested Map calls across views still respect one worker budget. A
// nil ctx (or a nil pool) returns the receiver unchanged.
func (p *Pool) WithContext(ctx context.Context) *Pool {
	if p == nil || ctx == nil {
		return p
	}
	q := *p
	q.ctx = ctx
	return &q
}

// WithRetry returns a pool view whose Map calls re-run a failing cell
// up to n extra times before recording its error. Retries cover both
// returned errors and recovered panics; they are intended for cells
// with transient failure modes (a flaky external resource, an
// allocation spike) — a deterministic simulation cell that fails will
// simply fail n+1 times and report its last error. The view shares
// the receiver's helper bound, collector, and context. n <= 0 (or a
// nil pool) returns the receiver unchanged.
func (p *Pool) WithRetry(n int) *Pool {
	if p == nil || n <= 0 {
		return p
	}
	q := *p
	q.retries = n
	return &q
}

// Workers returns the pool's worker bound (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Run executes fn as a single isolated cell on the calling goroutine:
// a panic inside fn is recovered and returned as a *CellError (index
// 0) exactly as Map would report it, the pool's retry policy applies,
// and the collector's task counters observe the cell. It is the
// serving layer's per-request isolation boundary — one poisoned
// request degrades to a typed error instead of killing the process —
// and is equivalent to Map(1, func(int) error { return fn() }).
func (p *Pool) Run(fn func() error) error {
	return p.Map(1, func(int) error { return fn() })
}

// Map runs fn(i) for every i in [0, n), using the calling goroutine
// plus up to Workers()-1 helper goroutines. All cells run even when
// some fail; the returned error is the one with the lowest index
// (exactly what a sequential loop over [0, n) would return first).
// A panicking cell is recovered and reported as a *CellError carrying
// the index, panic value, and stack — it fails like any other cell,
// and every other cell still runs to completion. When the pool
// carries a context (WithContext) and it is canceled, workers stop
// claiming cells, in-flight cells finish, and Map returns the
// lowest-index cell error if one occurred before the cancellation
// point, or the context's error otherwise.
func (p *Pool) Map(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	var c *obs.Collector
	var ev *events.Log
	var ctx context.Context
	retries := 0
	if p != nil {
		c = p.obs
		ev = p.ev
		ctx = p.ctx
		retries = p.retries
	}
	canceled := func() error {
		if ctx != nil {
			return ctx.Err()
		}
		return nil
	}
	// base runs one attempt of one cell with panic isolation.
	base := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				c.Add(obs.CellPanics, 1)
				ev.Emit(events.Event{Kind: events.KindCellPanic, Disk: -1,
					Detail: fmt.Sprintf("cell=%d", i)})
				err = &CellError{Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
		return fn(i)
	}
	// exec adds the bounded retry policy on top of an attempt.
	exec := base
	if retries > 0 {
		exec = func(i int) error {
			err := base(i)
			for r := 0; r < retries && err != nil && canceled() == nil; r++ {
				c.Add(obs.CellRetries, 1)
				ev.Emit(events.Event{Kind: events.KindCellRetry, Disk: -1,
					Detail: fmt.Sprintf("cell=%d attempt=%d", i, r+2)})
				err = base(i)
			}
			return err
		}
	}
	run := exec
	if c != nil {
		c.Add(obs.RunnerQueue, int64(n))
		run = func(i int) error {
			c.Add(obs.RunnerQueue, -1)
			t0 := time.Now()
			err := exec(i)
			c.Add(obs.RunnerTasks, 1)
			c.Add(obs.RunnerBusyNS, time.Since(t0).Nanoseconds())
			return err
		}
	}
	if p == nil || p.workers <= 1 || n == 1 {
		c.Add(obs.RunnerActive, 1)
		defer c.Add(obs.RunnerActive, -1)
		for i := 0; i < n; i++ {
			if err := canceled(); err != nil {
				// Cells i.. were never claimed; drain the gauge.
				c.Add(obs.RunnerQueue, int64(-(n - i)))
				return err
			}
			if err := run(i); err != nil {
				// Cells n-i-1.. were never claimed; drain the gauge.
				c.Add(obs.RunnerQueue, int64(-(n - i - 1)))
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next, claimed atomic.Int64
	work := func() {
		c.Add(obs.RunnerActive, 1)
		defer c.Add(obs.RunnerActive, -1)
		for {
			if canceled() != nil {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			claimed.Add(1)
			errs[i] = run(i)
		}
	}
	// Helpers spawn on demand, chained: each helper first checks that
	// unclaimed cells remain, then (if so) starts the next helper and
	// works. A grid whose cells drain faster than goroutines start —
	// or a machine whose CPUs are all busy — therefore never pays for
	// helpers that would find no work, and parallel Map never regresses
	// below the sequential loop. The helpers channel still caps the
	// pool-wide helper count (nested Map calls share one budget); when
	// no slot is free the caller alone keeps the bound intact.
	var wg sync.WaitGroup
	var spawn func()
	spawn = func() {
		if int(next.Load()) >= n || canceled() != nil {
			return
		}
		select {
		case p.helpers <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() {
					<-p.helpers
					wg.Done()
				}()
				spawn()
				work()
			}()
		default:
		}
	}
	spawn()
	work()
	wg.Wait()
	if unclaimed := int64(n) - claimed.Load(); unclaimed > 0 {
		// Cancellation left cells unclaimed; drain the gauge.
		c.Add(obs.RunnerQueue, -unclaimed)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return canceled()
}
