package sim

import (
	evpkg "sdpm/internal/obs/events"
	"sdpm/internal/trace"
)

// Horizon is a policy's decision-horizon contract with the batched
// executor. The fast path may only skip a policy's BeforeService call
// when the policy guarantees the call would not act; NoOpBefore is
// that guarantee, evaluated with the same floating-point comparisons
// the policy itself would perform so the prediction can never
// disagree with the real call.
type Horizon struct {
	// NoOpBefore reports whether the policy's BeforeService for disk
	// d at time now is guaranteed to be a no-op, given that the disk
	// has been idle since start and is spinning at rpm. The executor
	// only consults it for spinning disks. A false return is always
	// safe: the executor bails to the general path, which runs the
	// real BeforeService. A nil NoOpBefore means BeforeService never
	// acts (the base policy).
	NoOpBefore func(d int, start, now float64, rpm int) bool
	// AfterPerRequest marks policies whose AfterService observes
	// every request (the reactive DRPM controller window); the fast
	// path then invokes AfterService per request exactly as the
	// general path does. Policies with an empty AfterService leave it
	// false and the fast path skips the call entirely.
	AfterPerRequest bool
}

// HorizonPolicy is implemented by policies that can describe their
// decision horizon to the batched executor. A Policy that does not
// implement it disables batching for the run (correctness first).
type HorizonPolicy interface {
	Policy
	Horizon() Horizon
}

// batchEntry caches one disk's steady-state constants for the
// batched fast path, keyed by the (level, bytes) pair they were
// computed for and recomputed whenever either changes. Every cached
// value is produced by the same table call the general path makes,
// so the fast path's arithmetic is bit-identical.
type batchEntry struct {
	lvl     int // the disk's level index (dstate.lvl)
	bytes   int64
	svc     float64 // ServiceTimeSeekIdx(lvl, bytes, AvgSeekMS)
	addActJ float64 // pwAct * svc / 1e3
	pwIdle  float64 // IdlePowerIdx(lvl)
	pwAct   float64 // ActivePowerIdx(lvl)
}

// refill recomputes the entry's constants for disk s's new (level,
// bytes) pair. Callers test for a change first, so the per-request
// path pays only that comparison.
func (c *batchEntry) refill(m *Machine, s *dstate, bytes int64) {
	c.lvl = s.lvl
	c.bytes = bytes
	c.pwIdle = m.tbl.IdlePowerIdx(s.lvl)
	c.pwAct = m.tbl.ActivePowerIdx(s.lvl)
	c.svc = m.tbl.ServiceTimeSeekIdx(s.lvl, bytes, m.p.AvgSeekMS)
	c.addActJ = c.pwAct * c.svc / 1e3
}

// batchScratch is the per-disk constant cache (one entry per disk,
// one allocation per machine).
type batchScratch []batchEntry

func (m *Machine) batchScratchFor(n int) batchScratch {
	if m.batch != nil {
		return m.batch
	}
	sc := make(batchScratch, n)
	for d := range sc {
		sc[d].lvl = -1 // no valid cached entry yet
	}
	m.batch = sc
	return sc
}

// Reasons serviceRun gives for handing an event to the general path;
// they are the details of bailout events.
const (
	bailTransition = "disk_transition" // a power action or spin-up is in flight on the disk
	bailPolicy     = "policy_decision" // the policy's horizon says BeforeService may act
	bailRemap      = "fault_remap"     // the request hits a remapped bad sector
	bailDegraded   = "fault_degraded"  // the request falls in a degradation window
)

// serviceRun services the request events events[i:] (the caller cuts
// the trace's events at the end of a compiled run) back to back
// through the steady-state fast path, until it reaches the end or
// encounters an event it cannot batch: a disk that is not plainly
// spinning, a policy decision point (per the horizon), or a fault-plan
// hit (remap or degradation window). It returns the index of the
// first unprocessed event, the updated clock, and, when it stopped
// short of the end, the reason (one of the bail* constants); the
// caller services one event through the general path and re-enters.
//
// The fast path performs, per request, exactly the floating-point
// operations of the general path (Machine.advance + ServiceBlock) in
// the same order, with the per-(level, size) constants cached. The
// only eliminated float operations are ones that cannot change
// state: the WaitMS += 0 accumulation (start always equals the issue
// time here) and the policy's no-op BeforeService comparisons.
// Results are therefore bit-identical to the general path, which the
// differential tests in batch_diff_test.go enforce.
func (m *Machine) serviceRun(events []trace.Event, i int, clock float64, hz Horizon, pol Policy) (int, float64, string) {
	sc := m.batchScratchFor(len(m.disks))
	if !m.obs.Attached() && m.ev == nil && !m.recTimeline && m.faults == nil && hz.NoOpBefore == nil && !hz.AfterPerRequest {
		// No per-request instrumentation, faults, or policy horizon to
		// consult: take the branch-free steady-state loop, which stops
		// only at a disk in transition.
		i, clock = m.serviceRunLean(events, i, clock, sc)
		return i, clock, bailTransition
	}
	checkFaults := m.faults != nil
	checkHorizon := hz.NoOpBefore != nil
	recTL := m.recTimeline
	for i < len(events) {
		ev := &events[i]
		d := int(ev.Req.Disk)
		s := &m.disks[d]
		if s.status != StSpinning || s.accT != s.idleFrom {
			// A power op or spin-up is in flight on this disk; the
			// general path resolves it (and pays any wait).
			return i, clock, bailTransition
		}
		t := clock + ev.GapMS
		if checkHorizon && !hz.NoOpBefore(d, s.idleFrom, t, s.rpm) {
			return i, clock, bailPolicy
		}
		if checkFaults {
			if ev.Req.Block >= 0 && m.faults.Remapped(d, ev.Req.Block) {
				return i, clock, bailRemap
			}
			if factor, _ := m.faults.Degraded(d, t); factor > 1 {
				return i, clock, bailDegraded
			}
		}
		c := &sc[d]
		if c.lvl != s.lvl || c.bytes != ev.Req.Bytes {
			c.refill(m, s, ev.Req.Bytes)
		}
		idleLen := t - s.idleFrom
		if m.recIdles {
			s.idles = append(s.idles, IdlePeriod{StartMS: s.idleFrom, LenMS: idleLen})
		}
		if idleLen > 0 {
			// Machine.advance's StSpinning branch for [accT, t].
			e := c.pwIdle * idleLen / 1e3
			s.stats.EnergyJ += e
			s.stats.IdleEnergyJ += e
			s.stats.IdleMS += idleLen
			s.resid[s.lvl] += idleLen
			if recTL {
				s.record(true, s.accT, t, StSpinning, s.rpm, c.pwIdle, false)
			}
		}
		// ServiceBlock's spinning steady state: start == t, no wait.
		svc := c.svc
		s.stats.EnergyJ += c.addActJ
		s.stats.ActiveEnergyJ += c.addActJ
		s.stats.ActiveMS += svc
		s.resid[s.lvl] += svc
		s.stats.Requests++
		end := t + svc
		if m.obs.Attached() {
			m.obs.ObserveRequest(svc, 0, idleLen)
		}
		if recTL {
			s.record(true, t, end, StSpinning, s.rpm, c.pwAct, true)
		}
		s.accT = end
		s.idleFrom = end
		if m.ev != nil {
			// Keep the period-start energy snapshot current (the next
			// idle period on d starts here); see events.go.
			m.evd[d].baseJ = s.stats.EnergyJ
		}
		clock = end
		i++
		if hz.AfterPerRequest {
			// The controller may act on any disk (e.g. DRPM's restore
			// sweep); the per-disk status and cache checks above pick
			// that up on the next iteration.
			m.setTrigger(evpkg.TrigController, 0)
			pol.AfterService(m, d, end, end-t)
			m.restoreTrigger()
		}
	}
	return i, clock, ""
}

// serviceRunLean is serviceRun specialized for the common engine
// configuration — no collector, no timeline, no fault plan, and a
// policy (if any) with neither a BeforeService horizon nor a
// per-request AfterService. The arithmetic is identical to serviceRun;
// only the always-false instrumentation branches are gone.
func (m *Machine) serviceRunLean(events []trace.Event, i int, clock float64, sc batchScratch) (int, float64) {
	for i < len(events) {
		ev := &events[i]
		d := int(ev.Req.Disk)
		s := &m.disks[d]
		if s.status != StSpinning || s.accT != s.idleFrom {
			return i, clock
		}
		t := clock + ev.GapMS
		c := &sc[d]
		if c.lvl != s.lvl || c.bytes != ev.Req.Bytes {
			c.refill(m, s, ev.Req.Bytes)
		}
		idleLen := t - s.idleFrom
		if m.recIdles {
			s.idles = append(s.idles, IdlePeriod{StartMS: s.idleFrom, LenMS: idleLen})
		}
		if idleLen > 0 {
			e := c.pwIdle * idleLen / 1e3
			s.stats.EnergyJ += e
			s.stats.IdleEnergyJ += e
			s.stats.IdleMS += idleLen
			s.resid[s.lvl] += idleLen
		}
		svc := c.svc
		s.stats.EnergyJ += c.addActJ
		s.stats.ActiveEnergyJ += c.addActJ
		s.stats.ActiveMS += svc
		s.resid[s.lvl] += svc
		s.stats.Requests++
		end := t + svc
		s.accT = end
		s.idleFrom = end
		clock = end
		i++
	}
	return i, clock
}
