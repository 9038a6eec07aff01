package client

import (
	"fmt"
	"sync"
)

// BreakerConfig tunes the deterministic circuit breaker. The zero
// value gets the defaults below from complete().
type BreakerConfig struct {
	// FailureThreshold is how many consecutive attempt failures open
	// the breaker (0 = 5; negative disables the breaker entirely).
	FailureThreshold int
	// ProbeAfter is how many fast-fail rejections an open breaker
	// absorbs before going half-open and letting one probe attempt
	// through (0 = 8). Counting rejections instead of wall-clock makes
	// the schedule a pure function of the call sequence — the breaker
	// opens and closes at exactly the same points run after run. A
	// failed probe doubles the next budget, up to 16x ProbeAfter.
	ProbeAfter int
}

// maxProbeDoublings caps the doubling of ProbeAfter across consecutive
// re-opens: the budget never exceeds 16x the base.
const maxProbeDoublings = 4

func (c *BreakerConfig) complete() {
	if c.FailureThreshold == 0 {
		c.FailureThreshold = 5
	}
	if c.ProbeAfter <= 0 {
		c.ProbeAfter = 8
	}
}

// Breaker states.
const (
	breakerClosed = "closed"
	breakerOpen   = "open"
	breakerHalf   = "half-open"
)

// breaker is a deterministic circuit breaker: closed until
// FailureThreshold consecutive failures, then open (every call is
// rejected instantly) for ProbeAfter rejections, then half-open (one
// probe at a time) until a probe succeeds and closes it again; a
// failed probe re-opens with a doubled (capped) rejection budget. All
// scheduling is counted in calls, not wall time, so a fixed call
// sequence yields a fixed transition sequence.
type breaker struct {
	mu  sync.Mutex
	cfg BreakerConfig

	state       string
	consecFails int
	rejections  int
	probeBudget int // rejections to absorb before the next probe
	probing     bool
	openStreak  int64 // consecutive opens since the last full close; drives doubling
	opens       int64
	halfOpens   int64
	closes      int64
	// decisions counts every Allow/Success/Failure call; transition
	// labels carry it so a transition log pinpoints the exact call.
	decisions   int64
	transitions []string
}

func newBreaker(cfg BreakerConfig) *breaker {
	cfg.complete()
	return &breaker{cfg: cfg, state: breakerClosed}
}

// disabled reports whether the breaker never opens.
func (b *breaker) disabled() bool { return b.cfg.FailureThreshold < 0 }

// budget derives the rejection budget for the k-th consecutive open:
// the base doubles per re-open, at most maxProbeDoublings times.
func (b *breaker) budget(k int64) int {
	return b.cfg.ProbeAfter << min(k-1, maxProbeDoublings)
}

func (b *breaker) transition(state string) {
	b.state = state
	b.transitions = append(b.transitions, fmt.Sprintf("%s@%d", state, b.decisions))
}

// allow reports whether an attempt may proceed. A false return is a
// fast-fail rejection (no network activity happens).
func (b *breaker) allow() bool {
	if b.disabled() {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.decisions++
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		b.rejections++
		if b.rejections >= b.probeBudget {
			b.halfOpens++
			b.transition(breakerHalf)
			b.probing = true
			return true // this call is the probe
		}
		return false
	default: // half-open
		if b.probing {
			return false // one probe in flight at a time
		}
		b.probing = true
		return true
	}
}

// success records a definitive attempt success.
func (b *breaker) success() {
	if b.disabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.decisions++
	b.consecFails = 0
	if b.state == breakerHalf {
		b.probing = false
		b.closes++
		b.openStreak = 0 // a full recovery resets the budget doubling
		b.transition(breakerClosed)
	}
}

// abort resolves an attempt that proved nothing about the server — a
// request-build error or a caller cancellation. It releases a pending
// half-open probe without recording a success or failure; leaving the
// probe pending would fast-fail every future request forever.
func (b *breaker) abort() {
	if b.disabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.decisions++
	if b.state == breakerHalf {
		b.probing = false
	}
}

// failure records a definitive attempt failure.
func (b *breaker) failure() {
	if b.disabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.decisions++
	switch b.state {
	case breakerClosed:
		b.consecFails++
		if b.consecFails >= b.cfg.FailureThreshold {
			b.open()
		}
	case breakerHalf:
		// The probe failed: back to open with a doubled budget.
		b.probing = false
		b.open()
	}
}

func (b *breaker) open() {
	b.opens++
	b.openStreak++
	b.rejections = 0
	b.probeBudget = b.budget(b.openStreak)
	b.transition(breakerOpen)
}

// snapshot returns (state, opens, halfOpens, closes, transitions).
func (b *breaker) snapshot() (string, int64, int64, int64, []string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	tr := append([]string(nil), b.transitions...)
	return b.state, b.opens, b.halfOpens, b.closes, tr
}
