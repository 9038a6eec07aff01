// Package policy implements the disk power management schemes the
// paper evaluates against (Section 4.2):
//
//   - Base: no power management.
//   - TPM: traditional threshold-based spin-down (reactive).
//   - ITPM: ideal TPM with an oracle idle-period predictor.
//   - DRPM: the reactive dynamic-RPM controller of Gurumurthi et al.,
//     with response-time windows and upper/lower tolerances.
//   - IDRPM: ideal DRPM with an oracle idle-period predictor.
//
// The compiler-managed schemes (CMTPM, CMDRPM) are not policies: they
// arrive as explicit power-op events in the instrumented trace and
// are executed by the simulator directly.
//
// Oracle policies exploit the simulator's lazy energy accounting: at
// each request issue the idle period that just ended is fully known
// and still uncommitted, so the optimal action can be applied
// retroactively — which is exactly the semantics of an oracle
// predictor, with no execution-time penalty by construction.
package policy

import (
	"sdpm/internal/disk"
	"sdpm/internal/obs/events"
	"sdpm/internal/sim"
)

// Base is the no-power-management scheme.
type Base struct{}

// NewBase returns the base (no power management) policy.
func NewBase() *Base { return &Base{} }

// Name implements sim.Policy.
func (*Base) Name() string { return "Base" }

// BeforeService implements sim.Policy.
func (*Base) BeforeService(*sim.Machine, int, float64) {}

// AfterService implements sim.Policy.
func (*Base) AfterService(*sim.Machine, int, float64, float64) {}

// Finish implements sim.Policy.
func (*Base) Finish(*sim.Machine, float64) {}

// Horizon implements sim.HorizonPolicy: Base never acts, so the
// batched executor may skip every decision point.
func (*Base) Horizon() sim.Horizon { return sim.Horizon{} }

// DecisionTrigger implements sim.TriggerPolicy. Base never decides,
// so the label is empty.
func (*Base) DecisionTrigger() string { return "" }

// TPM is the traditional reactive spin-down policy: after a disk has
// been idle for the break-even time it is spun down; the next request
// pays the full spin-up delay.
type TPM struct {
	p         disk.Params
	threshold float64 // p.TPMBreakEvenMS()
}

// NewTPM returns a reactive TPM policy whose idleness threshold is the
// disk's break-even time.
func NewTPM(p disk.Params) *TPM {
	return &TPM{p: p, threshold: p.TPMBreakEvenMS()}
}

// Name implements sim.Policy.
func (*TPM) Name() string { return "TPM" }

// DecisionTrigger implements sim.TriggerPolicy: TPM decisions fire on
// idleness-threshold expiry.
func (*TPM) DecisionTrigger() string { return events.TrigThreshold }

// BeforeService spins the disk down retroactively if the gap that
// just ended exceeded the threshold; the simulator then charges the
// on-demand spin-up to this request.
func (t *TPM) BeforeService(m *sim.Machine, d int, now float64) {
	start := m.IdleFrom(d)
	if now-start > t.threshold && m.StatusOf(d) == sim.StSpinning && m.CurRPM(d) == t.p.MaxRPM {
		m.SpinDownAt(d, start+t.threshold)
	}
}

// AfterService implements sim.Policy.
func (*TPM) AfterService(*sim.Machine, int, float64, float64) {}

// Horizon implements sim.HorizonPolicy: BeforeService acts only when
// the ended idle period exceeds the threshold on a full-speed disk.
// The predicate repeats BeforeService's own comparisons (the status
// check is the executor's precondition), so it can never disagree
// with the real call.
func (t *TPM) Horizon() sim.Horizon {
	return sim.Horizon{
		NoOpBefore: func(d int, start, now float64, rpm int) bool {
			return !(now-start > t.threshold && rpm == t.p.MaxRPM)
		},
	}
}

// Finish spins down disks whose trailing idleness exceeds the
// threshold (no spin-up needed before program end).
func (t *TPM) Finish(m *sim.Machine, endT float64) {
	for d := 0; d < m.NumDisks(); d++ {
		start := m.IdleFrom(d)
		if endT-start > t.threshold && m.StatusOf(d) == sim.StSpinning {
			m.SpinDownAt(d, start+t.threshold)
		}
	}
}

// Ideal is the ideal scheme of one mechanism: ITPM or IDRPM. An
// oracle knows every idle period's length and spends it as
// disk.Table.Decide chooses for that length, spinning the disk down
// (ITPM) or dipping it to the energy-optimal RPM level (IDRPM) at the
// period's start and restoring full speed exactly in time for the
// next request, so no request ever waits.
type Ideal struct {
	tbl  *disk.Table
	mech disk.Mechanism
}

// NewITPM returns the ideal TPM policy.
func NewITPM(p disk.Params) *Ideal { return &Ideal{tbl: disk.TableFor(p), mech: disk.TPM} }

// NewIDRPM returns the ideal DRPM policy.
func NewIDRPM(p disk.Params) *Ideal { return &Ideal{tbl: disk.TableFor(p), mech: disk.DRPM} }

// Name implements sim.Policy.
func (o *Ideal) Name() string {
	if o.mech == disk.TPM {
		return "ITPM"
	}
	return "IDRPM"
}

// DecisionTrigger implements sim.TriggerPolicy: the ideal schemes
// place actions with oracle knowledge of the ended idle period.
func (*Ideal) DecisionTrigger() string { return events.TrigOracle }

// BeforeService applies the oracle decision to the idle period that
// just ended, if the disk spent it spinning at full speed.
func (o *Ideal) BeforeService(m *sim.Machine, d int, now float64) {
	if m.StatusOf(d) == sim.StSpinning && m.CurRPM(d) == o.tbl.P.MaxRPM {
		o.apply(m, d, m.IdleFrom(d), now, false)
	}
}

// AfterService implements sim.Policy.
func (*Ideal) AfterService(*sim.Machine, int, float64, float64) {}

// Horizon implements sim.HorizonPolicy: the oracle acts only when
// Decide leaves full speed for the just-ended period, the call
// BeforeService makes.
func (o *Ideal) Horizon() sim.Horizon {
	return sim.Horizon{
		NoOpBefore: func(d int, start, now float64, rpm int) bool {
			if rpm != o.tbl.P.MaxRPM {
				return true
			}
			level, _ := o.tbl.Decide(o.mech, now-start, false)
			return level == o.tbl.P.MaxRPM
		},
	}
}

// Finish exploits each disk's trailing idle period, which needs no
// way back to full speed.
func (o *Ideal) Finish(m *sim.Machine, endT float64) {
	for d := 0; d < m.NumDisks(); d++ {
		if m.StatusOf(d) == sim.StSpinning && m.CurRPM(d) == o.tbl.P.MaxRPM {
			o.apply(m, d, m.IdleFrom(d), endT, true)
		}
	}
}

// apply spends disk d's idle period [start, end) as Decide chooses,
// retroactively: it powers the disk down at start and, unless the
// period is trailing, restores full speed exactly in time for end.
func (o *Ideal) apply(m *sim.Machine, d int, start, end float64, trailing bool) {
	p := &o.tbl.P
	switch level, _ := o.tbl.Decide(o.mech, end-start, trailing); level {
	case p.MaxRPM: // stay at full speed
	case disk.Standby:
		m.SpinDownAt(d, start)
		if !trailing {
			m.SpinUpAt(d, end-p.SpinUpMS)
		}
	default:
		m.SetRPMAt(d, start, level)
		if !trailing {
			m.SetRPMAt(d, end-p.TransitionTimeMS(level, p.MaxRPM), p.MaxRPM)
		}
	}
}

// idleStepMS is the idleness per one-step RPM ramp of the reactive
// DRPM controller.
const idleStepMS = 40

// DRPM is the reactive dynamic-RPM policy of Gurumurthi et al.: each
// disk autonomously ramps down during idleness, one RPM step per
// idleStepMS, and requests are serviced at whatever level the disk
// has reached — the reactive scheme's performance penalty. The array
// controller watches the average response time over
// WindowSize-request windows (array-wide): if the change since the
// previous window exceeds the upper tolerance, every disk is
// commanded back to full speed and further ramping is suspended; if
// it stays below the lower tolerance, ramping is allowed again.
type DRPM struct {
	p disk.Params

	rampOK   bool
	winSum   float64
	winN     int
	prevAvg  float64
	havePrev bool
}

// NewDRPM returns a reactive DRPM policy. Its controller state is
// array-wide, so it serves a subsystem of any size.
func NewDRPM(p disk.Params) *DRPM {
	return &DRPM{p: p, rampOK: true}
}

// Name implements sim.Policy.
func (*DRPM) Name() string { return "DRPM" }

// DecisionTrigger implements sim.TriggerPolicy: DRPM decisions come
// from the autonomous idleness ramp (window-trip restores are
// relabelled "controller" by the simulator's AfterService context).
func (*DRPM) DecisionTrigger() string { return events.TrigRamp }

// BeforeService ramps the disk down through the idle period that just
// ended: one RPM step per idleStepMS of idleness, floored by the
// controller. The request is then serviced at whatever level the
// disk reached — the reactive scheme's performance penalty.
func (r *DRPM) BeforeService(m *sim.Machine, d int, now float64) {
	r.rampDown(m, d, m.IdleFrom(d), now)
}

func (r *DRPM) rampDown(m *sim.Machine, d int, start, end float64) {
	if !r.rampOK {
		return
	}
	if m.StatusOf(d) == sim.StStandby || m.StatusOf(d) == sim.StDown || m.StatusOf(d) == sim.StUp {
		return
	}
	cur := m.CurRPM(d)
	t := start + idleStepMS
	for cur > r.p.MinRPM && t <= end {
		cur -= r.p.RPMStep
		if cur < r.p.MinRPM {
			cur = r.p.MinRPM
		}
		m.SetRPMAt(d, t, cur)
		t += idleStepMS
	}
}

// Horizon implements sim.HorizonPolicy. BeforeService (rampDown) is
// a no-op when ramping is suspended, the disk is already at the
// floor, or the idle period is shorter than one ramp step; the
// closure reads the live controller state, so a window trip
// suspending or re-enabling ramps is reflected immediately. The
// controller window needs every response time, so AfterService runs
// per request even on the fast path.
func (r *DRPM) Horizon() sim.Horizon {
	return sim.Horizon{
		NoOpBefore: func(d int, start, now float64, rpm int) bool {
			if !r.rampOK {
				return true
			}
			if rpm <= r.p.MinRPM {
				return true
			}
			return start+idleStepMS > now
		},
		AfterPerRequest: true,
	}
}

// AfterService feeds the controller window and gates the ramping.
func (r *DRPM) AfterService(m *sim.Machine, d int, end, responseMS float64) {
	r.winSum += responseMS
	r.winN++
	if r.winN < r.p.WindowSize {
		return
	}
	avg := r.winSum / float64(r.winN)
	r.winSum, r.winN = 0, 0
	if r.havePrev && r.prevAvg > 0 {
		pct := (avg - r.prevAvg) / r.prevAvg * 100
		switch {
		case pct > r.p.UpperTolerancePct:
			// Performance degraded: restore full speed everywhere
			// and suspend ramping until performance stabilizes.
			r.rampOK = false
			for dd := 0; dd < m.NumDisks(); dd++ {
				m.SetRPMAt(dd, end, r.p.MaxRPM)
			}
		case pct < r.p.LowerTolerancePct:
			// Performance stable: ramping allowed.
			r.rampOK = true
		}
	}
	r.prevAvg = avg
	r.havePrev = true
}

// Finish ramps each disk down through its trailing idleness.
func (r *DRPM) Finish(m *sim.Machine, endT float64) {
	for d := 0; d < m.NumDisks(); d++ {
		r.rampDown(m, d, m.IdleFrom(d), endT)
	}
}
