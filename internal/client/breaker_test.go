package client

import (
	"reflect"
	"testing"
)

// drive applies a sequence of 'a' (allow), 's' (success), 'f'
// (failure) calls and returns the allow results in order.
func drive(b *breaker, seq string) []bool {
	var allows []bool
	for _, c := range seq {
		switch c {
		case 'a':
			allows = append(allows, b.allow())
		case 's':
			b.success()
		case 'f':
			b.failure()
		}
	}
	return allows
}

func TestBreakerDisabled(t *testing.T) {
	b := newBreaker(BreakerConfig{FailureThreshold: -1})
	for i := 0; i < 100; i++ {
		if !b.allow() {
			t.Fatalf("disabled breaker rejected call %d", i)
		}
		b.failure()
	}
	state, opens, _, _, tr := b.snapshot()
	if state != breakerClosed || opens != 0 || len(tr) != 0 {
		t.Fatalf("disabled breaker changed state: %s opens=%d tr=%v", state, opens, tr)
	}
}

func TestBreakerOpensAtExactDecision(t *testing.T) {
	b := newBreaker(BreakerConfig{FailureThreshold: 3, ProbeAfter: 2})
	// Three allow+failure pairs: the third failure is decision 6.
	allows := drive(b, "afafaf")
	if !reflect.DeepEqual(allows, []bool{true, true, true}) {
		t.Fatalf("allows = %v", allows)
	}
	state, opens, _, _, tr := b.snapshot()
	if state != breakerOpen || opens != 1 {
		t.Fatalf("state=%s opens=%d", state, opens)
	}
	if want := []string{"open@6"}; !reflect.DeepEqual(tr, want) {
		t.Fatalf("transitions = %v, want %v", tr, want)
	}
}

func TestBreakerRejectsThenProbesThenCloses(t *testing.T) {
	b := newBreaker(BreakerConfig{FailureThreshold: 3, ProbeAfter: 2})
	drive(b, "afafaf") // open@6
	// Two rejections absorb the budget: the second allow is the probe.
	allows := drive(b, "aa")
	if !reflect.DeepEqual(allows, []bool{false, true}) {
		t.Fatalf("open-phase allows = %v, want [false true]", allows)
	}
	b.success() // the probe succeeded
	state, _, halfOpens, closes, tr := b.snapshot()
	if state != breakerClosed || halfOpens != 1 || closes != 1 {
		t.Fatalf("state=%s halfOpens=%d closes=%d", state, halfOpens, closes)
	}
	want := []string{"open@6", "half-open@8", "closed@9"}
	if !reflect.DeepEqual(tr, want) {
		t.Fatalf("transitions = %v, want %v", tr, want)
	}
}

func TestBreakerFailedProbeDoublesBudget(t *testing.T) {
	b := newBreaker(BreakerConfig{FailureThreshold: 1, ProbeAfter: 2})
	drive(b, "af")  // open, budget 2
	drive(b, "aaf") // reject, probe, probe fails -> reopen, budget 4
	allows := drive(b, "aaaaa")
	// The doubled budget absorbs three rejections, the fourth call is
	// the probe, and the fifth is rejected while the probe is in
	// flight.
	if !reflect.DeepEqual(allows, []bool{false, false, false, true, false}) {
		t.Fatalf("doubled-budget allows = %v", allows)
	}
	b.success()
	if state, opens, _, closes, _ := b.snapshot(); state != breakerClosed || opens != 2 || closes != 1 {
		t.Fatalf("state=%s opens=%d closes=%d", state, opens, closes)
	}
	// After a full close the doubling streak resets: the next open gets
	// the base budget again.
	drive(b, "af")
	allows = drive(b, "aa")
	if !reflect.DeepEqual(allows, []bool{false, true}) {
		t.Fatalf("post-recovery allows = %v, want base budget of 2", allows)
	}
}

func TestBreakerBudgetCap(t *testing.T) {
	b := newBreaker(BreakerConfig{FailureThreshold: 1, ProbeAfter: 2})
	// The budget doubles per consecutive open, capped at 16x the base.
	for i, want := range []int{2, 4, 8, 16, 32, 32, 32, 32, 32} {
		if got := b.budget(int64(i + 1)); got != want {
			t.Fatalf("budget(%d) = %d, want %d", i+1, got, want)
		}
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b := newBreaker(BreakerConfig{FailureThreshold: 1, ProbeAfter: 1})
	drive(b, "af") // open
	allows := drive(b, "a")
	if !reflect.DeepEqual(allows, []bool{true}) {
		t.Fatalf("probe allow = %v", allows)
	}
	// While the probe is in flight, further calls are rejected.
	if b.allow() {
		t.Fatalf("second concurrent probe allowed")
	}
	if state, _, _, _, _ := b.snapshot(); state != breakerHalf {
		t.Fatalf("state with the probe in flight = %s, want half-open", state)
	}
	b.success() // one probe success closes the breaker
	if state, _, _, closes, _ := b.snapshot(); state != breakerClosed || closes != 1 {
		t.Fatalf("state=%s closes=%d after the probe succeeded", state, closes)
	}
}

// An aborted probe (the attempt resolved nothing about the server)
// releases the probe slot without counting a success or failure, so
// the breaker can probe again instead of wedging half-open.
func TestBreakerAbortReleasesProbe(t *testing.T) {
	b := newBreaker(BreakerConfig{FailureThreshold: 1, ProbeAfter: 1})
	b.failure() // closed -> open
	if !b.allow() {
		t.Fatalf("probe rejected")
	}
	b.abort()
	if !b.allow() {
		t.Fatalf("breaker wedged: no new probe allowed after an aborted one")
	}
	b.success()
	if state, _, _, closes, _ := b.snapshot(); state != breakerClosed || closes != 1 {
		t.Fatalf("state=%s closes=%d after the re-probe succeeded", state, closes)
	}
	// Outside half-open, abort is a no-op on state.
	b.abort()
	if state, _, _, _, _ := b.snapshot(); state != breakerClosed {
		t.Fatalf("abort changed a closed breaker to %s", state)
	}
}
