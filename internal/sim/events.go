package sim

// Decision-provenance event plumbing. The machine, when a log is
// attached, records every power action (spin-down, spin-up, RPM
// shift) with its trigger and inputs, and resolves each decision with
// the measured idle period it acted inside and the energy regret
// against the oracle choice for a period of that length.
//
// The attribution model: an idle period on disk d spans
// [idleFrom, next service start]. Every decision whose effect lands
// inside the period is "pending" until the period resolves. The
// period's actual energy is the disk's energy delta from the period
// start to the moment the next request begins service (so the cost of
// a readiness wait the decision caused is charged to it); the oracle
// energy is the cheapest way a clairvoyant policy could have spent an
// idle gap of the measured length (disk.Table.OracleEnergyJ: the
// cheaper of the ideal TPM and ideal DRPM choices for it). Only the
// first pending decision of a period carries the actual/oracle/regret
// numbers — later decisions of the same period get the measured idle
// only — so summing regret over the log never double-counts a period.
//
// Everything here but the trigger bracket is behind `m.ev != nil`
// checks: with no log attached the hot path pays one predictable
// branch per site, plus two field stores on each side of a bracketed
// call-out, and allocates nothing, and the arithmetic of the run is
// untouched either way (events only read state the simulator already
// computed).

import (
	"sdpm/internal/obs/events"
	"sdpm/internal/trace"
)

// evDisk is the per-disk decision-tracking state.
type evDisk struct {
	// pending holds the RunLog references of decisions awaiting this
	// disk's current idle period to resolve. Reused across periods.
	pending []uint64
	// baseJ is the disk's accumulated energy at the period start
	// (maintained at every request completion while a log is
	// attached), so actual period energy is one subtraction.
	baseJ float64
}

// attachEvents threads a run's decision-provenance log through the
// machine. program and scheme label every emitted event; trigger is
// the deciding policy's default decision trigger (events.Trig*);
// breakEvenMS is the threshold input stamped on decision events.
func (m *Machine) attachEvents(w *events.RunLog, program, scheme, trigger string, breakEvenMS float64) {
	m.ev = w
	m.evProg = program
	m.evPolicy = scheme
	m.evPolTrig = trigger
	m.evTrig = trigger
	m.evBE = breakEvenMS
	if len(m.evd) < len(m.disks) {
		m.evd = make([]evDisk, len(m.disks))
	}
}

// setTrigger switches the decision-trigger context (and the predicted
// idle that rides with hint triggers). Callers bracket policy or
// trace-op call-outs with it, log or no log: only emitDecision reads
// the context. restoreTrigger returns to the policy's default.
func (m *Machine) setTrigger(trig string, predictedIdleMS float64) {
	m.evTrig = trig
	m.evPred = predictedIdleMS
}

func (m *Machine) restoreTrigger() {
	m.evTrig = m.evPolTrig
	m.evPred = 0
}

// emitDecision records one power action on disk d effective at time t
// and marks it pending on d's current idle period.
func (m *Machine) emitDecision(d int, kind string, rpm int, t float64) {
	ref := m.ev.Emit(events.Event{
		TMS:             t,
		Kind:            kind,
		Program:         m.evProg,
		Policy:          m.evPolicy,
		Disk:            d,
		Trigger:         m.evTrig,
		TargetRPM:       rpm,
		PredictedIdleMS: m.evPred,
		BreakEvenMS:     m.evBE,
	})
	pd := &m.evd[d]
	pd.pending = append(pd.pending, ref)
}

// emitMiss records a request that blocked on disk readiness.
func (m *Machine) emitMiss(d int, t, idleMS, waitMS float64, onDemand bool) {
	detail := "inflight"
	if onDemand {
		detail = "ondemand"
	}
	m.ev.Emit(events.Event{
		TMS:            t,
		Kind:           events.KindSpinupMiss,
		Program:        m.evProg,
		Policy:         m.evPolicy,
		Disk:           d,
		MeasuredIdleMS: idleMS,
		WindowMS:       waitMS,
		Detail:         detail,
	})
}

// emitFault records one injected-fault lifecycle event; detail uses
// the metrics collector's fault-kind labels so the two surfaces
// cross-check one for one.
func (m *Machine) emitFault(d int, t float64, detail string) {
	m.ev.Emit(events.Event{
		TMS:     t,
		Kind:    events.KindFault,
		Program: m.evProg,
		Policy:  m.evPolicy,
		Disk:    d,
		Detail:  detail,
	})
}

// emitBailout records that the batched executor dropped request ev
// of a compiled run to the general path at clock. Detail holds
// serviceRun's reason: disk_transition (a power action or spin-up is
// in flight on the disk), policy_decision (the policy's horizon says
// BeforeService may act), fault_remap / fault_degraded (a fault-plan
// hit needs the general service path).
func (m *Machine) emitBailout(ev *trace.Event, clock float64, reason string) {
	m.ev.Emit(events.Event{
		TMS:     clock + ev.GapMS,
		Kind:    events.KindBailout,
		Program: m.evProg,
		Policy:  m.evPolicy,
		Disk:    int(ev.Req.Disk),
		Detail:  reason,
	})
}

// resolvePeriod finalizes disk d's just-ended idle period against its
// pending decisions: measured idle idleMS, full window windowMS
// (through any readiness wait), actual energy from the period-start
// snapshot, and the oracle minimum. No-op when no decisions are
// pending; the period-start energy snapshot is advanced by the
// request-completion paths, not here.
func (m *Machine) resolvePeriod(d int, idleMS, windowMS float64, trailing bool) {
	pd := &m.evd[d]
	if len(pd.pending) == 0 {
		return
	}
	actual := m.disks[d].stats.EnergyJ - pd.baseJ
	oracle := m.tbl.OracleEnergyJ(idleMS, trailing)
	m.ev.Resolve(pd.pending[0], events.Outcome{
		MeasuredIdleMS: idleMS,
		WindowMS:       windowMS,
		ActualJ:        actual,
		OracleJ:        oracle,
		RegretJ:        actual - oracle,
	})
	for _, ref := range pd.pending[1:] {
		m.ev.Resolve(ref, events.Outcome{MeasuredIdleMS: idleMS, WindowMS: windowMS})
	}
	pd.pending = pd.pending[:0]
}
