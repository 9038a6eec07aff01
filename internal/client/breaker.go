package client

import (
	"fmt"
	"sync"

	"sdpm/internal/faults"
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
	// opens and closes at exactly the same points run after run.
	ProbeAfter int
	// ProbeJitter widens each open period by a seeded extra rejection
	// count in [0, ProbeJitter), drawn per open from the client's seed
	// (0 = none). Deterministic for a fixed seed; spreads probes out
	// across a fleet of clients with distinct seeds.
	ProbeJitter int
	// ProbeSuccesses is how many consecutive probe successes close a
	// half-open breaker (0 = 1).
	ProbeSuccesses int
	// MaxProbeAfter caps the doubling of ProbeAfter across consecutive
	// re-opens (0 = 16x the base ProbeAfter).
	MaxProbeAfter int
}

func (c *BreakerConfig) complete() {
	if c.FailureThreshold == 0 {
		c.FailureThreshold = 5
	}
	if c.ProbeAfter <= 0 {
		c.ProbeAfter = 8
	}
	if c.ProbeSuccesses <= 0 {
		c.ProbeSuccesses = 1
	}
	if c.MaxProbeAfter <= 0 {
		c.MaxProbeAfter = 16 * c.ProbeAfter
	}
}

// Breaker states.
const (
	breakerClosed = "closed"
	breakerOpen   = "open"
	breakerHalf   = "half-open"
)

const streamProbeJitter = 0x636c69656e740a01

// breaker is a deterministic circuit breaker: closed until
// FailureThreshold consecutive failures, then open (every call is
// rejected instantly) for a seeded number of rejections, then
// half-open (one probe at a time) until ProbeSuccesses consecutive
// probe successes close it again; a failed probe re-opens with a
// doubled (capped) rejection budget. All scheduling is counted in
// calls, not wall time, so a fixed call sequence yields a fixed
// transition sequence.
type breaker struct {
	mu  sync.Mutex
	cfg BreakerConfig
	// seed drives the per-open probe-schedule jitter.
	seed int64

	state       string
	consecFails int
	rejections  int
	probeBudget int // rejections to absorb before the next probe
	successRun  int
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

func newBreaker(cfg BreakerConfig, seed int64) *breaker {
	cfg.complete()
	return &breaker{cfg: cfg, seed: seed, state: breakerClosed}
}

// disabled reports whether the breaker never opens.
func (b *breaker) disabled() bool { return b.cfg.FailureThreshold < 0 }

// budget derives the rejection budget for the k-th open: the base
// doubles per consecutive re-open (capped), plus a seeded jitter.
func (b *breaker) budget(k int64) int {
	base := b.cfg.ProbeAfter
	for i := int64(1); i < k; i++ {
		base *= 2
		if base >= b.cfg.MaxProbeAfter {
			base = b.cfg.MaxProbeAfter
			break
		}
	}
	if b.cfg.ProbeJitter > 0 {
		base += int(faults.Uniform(b.seed, streamProbeJitter, uint64(k)) * float64(b.cfg.ProbeJitter))
	}
	return base
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
		b.successRun++
		if b.successRun >= b.cfg.ProbeSuccesses {
			b.closes++
			b.openStreak = 0 // a full recovery resets the budget doubling
			b.transition(breakerClosed)
		}
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
		b.successRun = 0
		b.open()
	}
}

func (b *breaker) open() {
	b.opens++
	b.openStreak++
	b.rejections = 0
	b.successRun = 0
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
