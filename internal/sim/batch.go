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
// batched fast path, keyed by the (rpm, bytes) pair they were
// computed for and recomputed whenever either changes. Every cached
// value is produced by the same table call the general path makes,
// so the fast path's arithmetic is bit-identical.
type batchEntry struct {
	rpm      int
	residIdx int // rpm's level index, the disk's lvl
	bytes    int64
	svc      float64 // ServiceTimeSeekIdx(residIdx, bytes, AvgSeekMS)
	addActJ  float64 // pwAct * svc / 1e3
	pwIdle   float64 // IdlePowerIdx(residIdx)
	pwAct    float64 // ActivePowerIdx(residIdx)
	// idleLen/idleE memoize the last idle-energy product
	// pwIdle * idleLen / 1e3 — in steady state every idle period has
	// the same length, so the division runs once per length change
	// rather than once per request. Same inputs, same bits.
	idleLen float64
	idleE   float64
}

// refill recomputes the entry's constants for disk s's new (rpm,
// bytes) pair, by the level index s keeps next to its rpm. Callers
// test for a change first, so the per-request path pays only that
// comparison.
func (c *batchEntry) refill(m *Machine, s *dstate, bytes int64) {
	c.rpm = s.rpm
	c.bytes = bytes
	c.pwIdle = m.tbl.IdlePowerIdx(s.lvl)
	c.pwAct = m.tbl.ActivePowerIdx(s.lvl)
	c.svc = m.tbl.ServiceTimeSeekIdx(s.lvl, bytes, m.p.AvgSeekMS)
	c.addActJ = c.pwAct * c.svc / 1e3
	c.residIdx = s.lvl
	c.idleLen = -1 // unmatchable: idle memo invalid for new rpm
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
		sc[d].rpm = -1 // no valid cached entry yet
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

// serviceRun walks events[run.Start:run.End] — a compiled run of
// request events — through the steady-state fast path, servicing
// requests back to back from index i until it reaches the run's end
// or encounters an event it cannot batch: a disk that is not plainly
// spinning, a policy decision point (per the horizon), or a
// fault-plan hit (remap or degradation window). It returns the index
// of the first unprocessed event, the updated clock, and, when it
// stopped short of the run's end, the reason (one of the bail*
// constants); the caller services one event through the general path
// and re-enters.
//
// The fast path performs, per request, exactly the floating-point
// operations of the general path (Machine.advance + ServiceBlock) in
// the same order, with the per-(rpm, size) constants cached. The
// only eliminated float operations are ones that cannot change
// state: the WaitMS += 0 accumulation (start always equals the issue
// time here) and the policy's no-op BeforeService comparisons.
// Results are therefore bit-identical to the general path, which the
// differential tests in batch_diff_test.go enforce.
func (m *Machine) serviceRun(events []trace.Event, i int, run *trace.Run, clock float64, hz Horizon, pol Policy) (int, float64, string) {
	sc := m.batchScratchFor(len(m.disks))
	if !m.obs.Attached() && m.ev == nil && !m.recTimeline && m.faults == nil && hz.NoOpBefore == nil && !hz.AfterPerRequest {
		// No per-request instrumentation, faults, or policy horizon to
		// consult: take the branch-free steady-state loop, which stops
		// only at a disk in transition.
		i, clock = m.serviceRunLean(events, i, run, clock, sc)
		return i, clock, bailTransition
	}
	hi := run.End
	// Runs compiled as fully uniform let the loop skip the per-event
	// gap and size loads (the branches below predict perfectly either
	// way); the per-disk Block load is only needed when a fault plan
	// could remap it.
	uniformGap, gapMS := run.GapMS >= 0, run.GapMS
	uniformBytes, runBytes := run.Bytes != 0, run.Bytes
	runDisk, pat, start := run.Disk, run.Disks, run.Start
	checkFaults := m.faults != nil
	checkHorizon := hz.NoOpBefore != nil
	recTL := m.recTimeline
	for i < hi {
		ev := &events[i]
		d := runDisk
		if pat != nil {
			d = int(pat[i-start])
		} else if d < 0 {
			d = ev.Req.Disk
		}
		s := &m.disks[d]
		if s.status != StSpinning || s.accT != s.idleFrom {
			// A power op or spin-up is in flight on this disk; the
			// general path resolves it (and pays any wait).
			return i, clock, bailTransition
		}
		gap := gapMS
		if !uniformGap {
			gap = ev.GapMS
		}
		t := clock + gap
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
		bytes := runBytes
		if !uniformBytes {
			bytes = ev.Req.Bytes
		}
		c := &sc[d]
		if c.rpm != s.rpm || c.bytes != bytes {
			c.refill(m, s, bytes)
		}
		idleLen := t - s.idleFrom
		s.idles = append(s.idles, IdlePeriod{StartMS: s.idleFrom, LenMS: idleLen})
		if idleLen > 0 {
			// Machine.advance's StSpinning branch for [accT, t].
			e := c.idleE
			if idleLen != c.idleLen {
				e = c.pwIdle * idleLen / 1e3
				c.idleLen, c.idleE = idleLen, e
			}
			s.stats.EnergyJ += e
			s.stats.IdleEnergyJ += e
			s.stats.IdleMS += idleLen
			s.resid[c.residIdx] += idleLen
			if recTL {
				s.record(true, s.accT, t, StSpinning, s.rpm, c.pwIdle, false)
			}
		}
		// ServiceBlock's spinning steady state: start == t, no wait.
		svc := c.svc
		s.stats.EnergyJ += c.addActJ
		s.stats.ActiveEnergyJ += c.addActJ
		s.stats.ActiveMS += svc
		s.resid[c.residIdx] += svc
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
func (m *Machine) serviceRunLean(events []trace.Event, i int, run *trace.Run, clock float64, sc batchScratch) (int, float64) {
	hi := run.End
	uniformGap, gapMS := run.GapMS >= 0, run.GapMS
	uniformBytes, runBytes := run.Bytes != 0, run.Bytes
	runDisk, pat, start := run.Disk, run.Disks, run.Start
	for i < hi {
		d := runDisk
		if pat != nil {
			d = int(pat[i-start])
		} else if d < 0 {
			d = events[i].Req.Disk
		}
		s := &m.disks[d]
		if s.status != StSpinning || s.accT != s.idleFrom {
			return i, clock
		}
		gap := gapMS
		if !uniformGap {
			gap = events[i].GapMS
		}
		t := clock + gap
		bytes := runBytes
		if !uniformBytes {
			bytes = events[i].Req.Bytes
		}
		c := &sc[d]
		if c.rpm != s.rpm || c.bytes != bytes {
			c.refill(m, s, bytes)
		}
		idleLen := t - s.idleFrom
		s.idles = append(s.idles, IdlePeriod{StartMS: s.idleFrom, LenMS: idleLen})
		if idleLen > 0 {
			e := c.idleE
			if idleLen != c.idleLen {
				e = c.pwIdle * idleLen / 1e3
				c.idleLen, c.idleE = idleLen, e
			}
			s.stats.EnergyJ += e
			s.stats.IdleEnergyJ += e
			s.stats.IdleMS += idleLen
			s.resid[c.residIdx] += idleLen
		}
		svc := c.svc
		s.stats.EnergyJ += c.addActJ
		s.stats.ActiveEnergyJ += c.addActJ
		s.stats.ActiveMS += svc
		s.resid[c.residIdx] += svc
		s.stats.Requests++
		end := t + svc
		s.accT = end
		s.idleFrom = end
		clock = end
		i++
	}
	return i, clock
}
