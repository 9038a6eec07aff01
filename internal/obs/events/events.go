// Package events provides the decision-provenance event log: a
// nil-safe, allocation-conscious structured record of every power
// decision the simulator makes (and the engine events around it),
// with enough context to attribute energy to individual decisions.
//
// Where the metrics collector (package obs) answers "how much" in
// aggregate — histograms, counters, residency — the event log answers
// "which decision, why, and what did it cost": each spin-down,
// spin-up, and RPM shift is recorded with its deciding policy, its
// trigger, its inputs (predicted idle, break-even time), and — once
// the idle period it gambled on has resolved — the measured idle and
// the energy regret against the oracle choice for that period.
//
// The log is a fixed-capacity ring: when full, the oldest events are
// evicted (and counted) rather than growing without bound. A nil
// *Log is a valid sink that records nothing, so the simulator can
// thread one unconditionally and pay a single predictable branch per
// emit point.
//
// A simulation run does not take the log's lock per event: it writes
// through a RunLog (see StartRun), which buffers its events in chunks
// and appends each chunk to the ring under one lock.
package events

import (
	"sync"
	"sync/atomic"
)

// Event kinds. Decision kinds (spin_down, spin_up, rpm_shift) carry
// provenance inputs and are later resolved with a measured outcome;
// the remaining kinds are point records of engine lifecycle moments.
const (
	KindSpinDown    = "spin_down"    // decision: spin to standby
	KindSpinUp      = "spin_up"      // decision: spin back to full speed
	KindRPMShift    = "rpm_shift"    // decision: modulate spindle speed
	KindSpinupMiss  = "spinup_miss"  // a request blocked on disk readiness
	KindBailout     = "bailout"      // batched executor dropped to the general path
	KindFault       = "fault"        // injected-fault lifecycle (fail/retry/timeout/fallback)
	KindJournalHit  = "journal_hit"  // experiment cell restored from the journal
	KindJournalMiss = "journal_miss" // experiment cell computed (journal had no entry)
	KindCellRetry   = "cell_retry"   // runner retried a failed cell
	KindCellPanic   = "cell_panic"   // runner recovered a cell panic
)

// Decision triggers: what prompted a decision-kind event.
const (
	TrigThreshold  = "threshold"  // reactive idle-threshold expiry (TPM)
	TrigOracle     = "oracle"     // retroactive oracle placement (ITPM/IDRPM)
	TrigRamp       = "ramp"       // array-wide ramp controller (DRPM)
	TrigHint       = "hint"       // compiler-inserted power op in the trace
	TrigDemand     = "demand"     // on-demand spin-up forced by a request
	TrigController = "controller" // per-request controller update (AfterService)
	TrigFinish     = "finish"     // trailing-idle handling at program end
)

// IsDecision reports whether kind is a power-decision kind (one that
// carries provenance inputs and an energy-regret outcome).
func IsDecision(kind string) bool {
	return kind == KindSpinDown || kind == KindSpinUp || kind == KindRPMShift
}

// Event is one structured log entry. Decision events are emitted when
// the power action fires and resolved in place (via Log.Resolve) when
// the idle period they belong to ends; all other kinds are complete
// at emit time. Fields that do not apply to a kind are zero and
// omitted from the JSONL encoding.
type Event struct {
	// Seq is the log-assigned sequence number, starting at 1. It
	// orders events within one run and keys Resolve.
	Seq uint64 `json:"seq"`
	// TMS is the simulated time of the event in milliseconds, or 0
	// for engine events with no simulated clock (journal, runner).
	TMS float64 `json:"t_ms"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Program and Policy label the run (trace program name and scheme
	// label) so merged logs from a suite stay attributable.
	Program string `json:"program,omitempty"`
	Policy  string `json:"policy,omitempty"`
	// Disk is the disk index, or -1 when the event is not disk-scoped.
	Disk int `json:"disk"`
	// Trigger is one of the Trig* constants on decision kinds and
	// empty on the others; bailout and fault kinds give their reason
	// in Detail.
	Trigger string `json:"trigger,omitempty"`
	// TargetRPM is the target spindle speed of an rpm_shift decision.
	TargetRPM int `json:"rpm,omitempty"`
	// PredictedIdleMS is the decision's idle-length input: the
	// compiler's estimate for hint-triggered ops, or 0 when the
	// policy used no prediction.
	PredictedIdleMS float64 `json:"predicted_idle_ms,omitempty"`
	// BreakEvenMS is the break-even threshold the decision compared
	// against (TPM-style decisions).
	BreakEvenMS float64 `json:"break_even_ms,omitempty"`
	// MeasuredIdleMS is the actual length of the idle period the
	// decision acted inside, filled in at resolution.
	MeasuredIdleMS float64 `json:"measured_idle_ms,omitempty"`
	// WindowMS is the span from the period start to the moment the
	// next request could be serviced (includes any readiness wait).
	WindowMS float64 `json:"window_ms,omitempty"`
	// ActualJ/OracleJ/RegretJ carry the period's energy attribution:
	// energy actually spent over the idle period, the oracle minimum
	// for a period of that length, and their difference. Only the
	// first decision of a period carries them (so sums over the log
	// never double-count a period).
	ActualJ float64 `json:"actual_j,omitempty"`
	OracleJ float64 `json:"oracle_j,omitempty"`
	RegretJ float64 `json:"regret_j,omitempty"`
	// Detail disambiguates within a kind: spinup_miss "ondemand" vs
	// "inflight", fault "fail"/"retry"/"timeout"/"fallback", bailout
	// reasons, journal/cell keys.
	Detail string `json:"detail,omitempty"`
}

// Outcome is the measured resolution of a decision event.
type Outcome struct {
	MeasuredIdleMS float64
	WindowMS       float64
	ActualJ        float64
	OracleJ        float64
	RegretJ        float64
}

// DefaultCapacity is the ring capacity CLIs use unless overridden:
// large enough to hold every decision of any experiment in the suite,
// small enough to preallocate without ceremony.
const DefaultCapacity = 1 << 16

// Log is a fixed-capacity ring of events. All methods are safe for
// concurrent use and safe on a nil receiver (no-ops that report an
// empty log), so a single branch-free "is there a log" decision can
// be threaded through hot paths.
type Log struct {
	mu      sync.Mutex
	buf     []Event // ring storage; event seq s lives at (s-1) % cap(buf)
	seq     uint64  // last assigned sequence number
	dropped uint64  // events evicted by ring wrap-around

	// spare is the RunLog of the last finished run, kept for the next
	// StartRun ahead of runLogPool (see runlog.go).
	spare atomic.Pointer[RunLog]
}

// NewLog returns a log holding at most capacity events (the oldest
// are evicted first). Non-positive capacities use DefaultCapacity.
// The ring storage is preallocated so Emit never allocates.
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Log{buf: make([]Event, 0, capacity)}
}

// Emit appends ev, assigning and returning its sequence number. The
// returned seq keys a later Resolve. A nil log returns 0 (a seq no
// Resolve will ever match).
func (l *Log) Emit(ev Event) uint64 {
	if l == nil {
		return 0
	}
	evs := [1]Event{ev}
	return l.append(evs[:])
}

// append copies evs into the ring under one lock, assigning them
// consecutive sequence numbers, and returns the first one. It is the
// ring's only insertion path.
func (l *Log) append(evs []Event) uint64 {
	l.mu.Lock()
	first := l.seq + 1
	for len(evs) > 0 {
		// Copy the longest prefix that fits before the ring's end.
		// Once the ring has filled, every copy overwrites (evicts) as
		// many events as it adds.
		idx := int(l.seq % uint64(cap(l.buf)))
		n := min(len(evs), cap(l.buf)-idx)
		if idx < len(l.buf) {
			l.dropped += uint64(n)
			copy(l.buf[idx:idx+n], evs)
		} else {
			l.buf = append(l.buf, evs[:n]...)
		}
		for j := idx; j < idx+n; j++ {
			l.seq++
			l.buf[j].Seq = l.seq
		}
		evs = evs[n:]
	}
	l.mu.Unlock()
	return first
}

// Resolve fills in the measured outcome of the decision event with
// the given seq. Resolving seq 0, an evicted event, or on a nil log
// is a silent no-op: by the time a long idle period resolves, its
// decision may legitimately have been evicted.
func (l *Log) Resolve(seq uint64, out Outcome) {
	if l == nil || seq == 0 {
		return
	}
	l.mu.Lock()
	idx := int((seq - 1) % uint64(cap(l.buf)))
	if idx < len(l.buf) && l.buf[idx].Seq == seq {
		l.buf[idx].resolve(out)
	}
	l.mu.Unlock()
}

// resolve copies out into the event.
func (e *Event) resolve(out Outcome) {
	e.MeasuredIdleMS = out.MeasuredIdleMS
	e.WindowMS = out.WindowMS
	e.ActualJ = out.ActualJ
	e.OracleJ = out.OracleJ
	e.RegretJ = out.RegretJ
}

// Len returns the number of events currently held.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// Dropped returns the number of events evicted by ring wrap-around.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Events returns a copy of the held events in ascending seq order.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buf) == 0 {
		return nil
	}
	out := make([]Event, 0, len(l.buf))
	// The oldest surviving seq is l.seq - len + 1; walk the ring from
	// its slot forward.
	oldest := l.seq - uint64(len(l.buf)) + 1
	for s := oldest; s <= l.seq; s++ {
		out = append(out, l.buf[int((s-1)%uint64(cap(l.buf)))])
	}
	return out
}
