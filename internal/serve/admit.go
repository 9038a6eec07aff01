package serve

import (
	"context"
	"errors"
	"time"

	"sdpm/internal/obs"
)

// admitter bounds the service's concurrency: at most maxInflight
// requests execute at once, at most maxQueue more wait for a slot,
// and no request waits longer than the queue-wait budget. Anything
// beyond those bounds is shed immediately with a typed overload error
// — the service degrades by refusing work it cannot serve in time,
// never by queuing without bound.
type admitter struct {
	slots     chan struct{} // capacity = maxInflight; a token is one execution slot
	queued    chan struct{} // capacity = maxQueue; a token is one waiting spot
	queueWait time.Duration
	coll      *obs.Collector
}

func newAdmitter(maxInflight, maxQueue int, queueWait time.Duration, coll *obs.Collector) *admitter {
	return &admitter{
		slots:     make(chan struct{}, maxInflight),
		queued:    make(chan struct{}, maxQueue),
		queueWait: queueWait,
		coll:      coll,
	}
}

// acquire claims an execution slot, waiting up to the queue-wait
// budget (and never past ctx). On success it returns the release
// function and the time spent queued; the caller must invoke release
// exactly once. On failure it returns a typed error: overload when
// the queue is full or the wait budget expired, deadline/canceled
// when ctx fired first.
func (a *admitter) acquire(ctx context.Context) (release func(), waitMS float64, aerr *Error) {
	// Fast path: a free slot means no queuing at all.
	select {
	case a.slots <- struct{}{}:
		return a.release, 0, nil
	default:
	}
	// Claim a waiting spot; a full queue sheds instantly.
	select {
	case a.queued <- struct{}{}:
	default:
		a.coll.Add(obs.ServeShed, 1)
		return nil, 0, &Error{
			Kind:       KindOverload,
			Msg:        "admission queue full",
			RetryAfter: a.queueWait,
		}
	}
	a.coll.Add(obs.ServeQueued, 1)
	start := time.Now()
	timer := time.NewTimer(a.queueWait)
	defer func() {
		timer.Stop()
		<-a.queued
		a.coll.Add(obs.ServeQueued, -1)
	}()
	select {
	case a.slots <- struct{}{}:
		return a.release, float64(time.Since(start)) / float64(time.Millisecond), nil
	case <-timer.C:
		a.coll.Add(obs.ServeShed, 1)
		return nil, 0, &Error{
			Kind:       KindOverload,
			Msg:        "no execution slot freed within the queue-wait budget",
			RetryAfter: a.queueWait,
		}
	case <-ctx.Done():
		return nil, 0, ctxError(ctx, nil)
	}
}

func (a *admitter) release() { <-a.slots }

// ctxError maps a fired context to the deadline/canceled taxonomy,
// attaching optional partial-progress metadata.
func ctxError(ctx context.Context, meta map[string]any) *Error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return &Error{Kind: KindDeadline, Msg: "request deadline exceeded", Meta: meta}
	}
	return &Error{Kind: KindCanceled, Msg: "request canceled by client", Meta: meta}
}
