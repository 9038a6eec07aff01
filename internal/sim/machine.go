// Package sim implements the trace-driven disk power simulator used
// for all of the paper's experiments. It executes a program-order
// event trace in a closed loop (request n+1 is issued after request n
// completes plus the compute gap), maintains a per-disk power state
// machine, and integrates energy over piecewise-constant power
// segments.
//
// Power-management policies act through the Machine's per-disk
// operations. Energy accounting is lazy: a disk's timeline is only
// committed up to its accounting cursor, so a policy may apply
// actions retroactively anywhere inside the idle period that is just
// ending. This is what makes the paper's oracle schemes (ITPM,
// IDRPM) realizable in a single simulation pass.
package sim

import (
	"math"

	"sdpm/internal/disk"
	"sdpm/internal/faults"
	"sdpm/internal/obs"
	"sdpm/internal/obs/events"
)

// Status enumerates the per-disk power states.
type Status uint8

// Disk power states.
const (
	StSpinning Status = iota // platters at d.rpm; idle or servicing
	StStandby                // spun down
	StDown                   // spinning down (idle -> standby)
	StUp                     // spinning up (standby -> full speed)
	StShift                  // RPM modulation in progress
)

// String returns a short state name.
func (s Status) String() string {
	switch s {
	case StSpinning:
		return "spinning"
	case StStandby:
		return "standby"
	case StDown:
		return "spindown"
	case StUp:
		return "spinup"
	default:
		return "rpmshift"
	}
}

// IdlePeriod records one inter-request idle period on a disk.
type IdlePeriod struct {
	StartMS float64
	LenMS   float64
}

// DiskStats aggregates one disk's activity over a run.
type DiskStats struct {
	EnergyJ      float64
	ActiveMS     float64
	IdleMS       float64 // spinning, not servicing
	StandbyMS    float64
	TransitionMS float64 // spin up/down + RPM shifts
	// Per-mode energy breakdown (sums to EnergyJ).
	ActiveEnergyJ     float64
	IdleEnergyJ       float64
	StandbyEnergyJ    float64
	TransitionEnergyJ float64
	Requests          int
	SpinDowns         int
	SpinUps           int
	RPMShifts         int
	// WaitMS is the total time requests waited for the disk to become
	// ready (spin-up or shift completion) — the performance penalty.
	WaitMS float64
	// Injected-fault accounting (all zero unless a fault plan is
	// attached; see AttachFaults).
	SpinUpFailures int // spin-up attempts that failed
	SpinUpRetries  int // backoff retries taken after failures
	SpinUpTimeouts int // spin-up calls abandoned at the timeout cap
	Fallbacks      int // requests served on demand after a given-up pre-activation
	RemapHits      int // requests that hit a remapped bad sector
	DegradedHits   int // requests serviced inside a degradation window
	// DegradedExtraMS is the extra transfer time injected by
	// degradation windows (already included in ActiveMS).
	DegradedExtraMS float64
	// RPMResidencyMS maps RPM level -> total spinning time at that
	// level (idle plus servicing).
	RPMResidencyMS map[int]float64
}

// addResidency accumulates spinning time at an RPM level. The hot
// path uses the dense per-level slice (one backing array for the
// whole machine, allocated once); the map in DiskStats is only
// materialized at Finish. The overflow map handles RPMs outside the
// disk's level grid, which no current caller produces.
func (s *dstate) addResidency(p *disk.Params, rpm int, ms float64) {
	if idx := p.LevelIndex(rpm); idx >= 0 {
		s.resid[idx] += ms
		return
	}
	if s.residOverflow == nil {
		s.residOverflow = make(map[int]float64)
	}
	s.residOverflow[rpm] += ms
}

// Segment is one piece of a disk's recorded timeline: a maximal span
// during which the disk stayed in one state at one power draw.
type Segment struct {
	StartMS, EndMS float64
	Stat           Status
	// RPM is the spindle speed during the segment (the target level
	// during a shift; 0 in standby).
	RPM int
	// PowerW is the constant power draw of the segment.
	PowerW float64
	// Active marks a request-service segment.
	Active bool
}

type dstate struct {
	accT        float64 // energy accounted up to here
	status      Status
	rpm         int     // speed when spinning (target during StShift)
	statusUntil float64 // end of transitional status
	transPowerW float64 // power during current transitional status
	idleFrom    float64 // completion time of the last request
	stats       DiskStats
	idles       []IdlePeriod
	timeline    []Segment
	// resid is the dense per-RPM-level spinning-time accumulator
	// (index = disk.Params.LevelIndex); residOverflow catches
	// non-level RPMs.
	resid         []float64
	residOverflow map[int]float64
	// Fault-injection state (untouched when no plan is attached).
	// upAttempts indexes this disk's spin-up attempts into the fault
	// plan's decision stream; upAborted marks an in-progress StUp that
	// resolves back to standby (the cascade gave up); upGaveUp flags
	// that the next request must fall back to on-demand service.
	upAttempts int
	upAborted  bool
	upGaveUp   bool
}

// record appends a timeline segment, merging with the previous one
// when the state continues unchanged.
func (s *dstate) record(enabled bool, start, end float64, stat Status, rpm int, powerW float64, active bool) {
	if !enabled || end <= start {
		return
	}
	if n := len(s.timeline); n > 0 {
		last := &s.timeline[n-1]
		if last.Stat == stat && last.RPM == rpm && last.PowerW == powerW &&
			last.Active == active && last.EndMS == start {
			last.EndMS = end
			return
		}
	}
	s.timeline = append(s.timeline, Segment{StartMS: start, EndMS: end, Stat: stat, RPM: rpm, PowerW: powerW, Active: active})
}

// Machine is the multi-disk power state machine.
type Machine struct {
	p disk.Params
	// tbl serves the per-level power and timing queries of the hot
	// path from precomputed arrays; every value is bitwise identical
	// to the Params method it caches.
	tbl   *disk.Table
	disks []dstate
	// Distance-aware seek state (disabled by default).
	distSeek  bool
	maxBlocks int64
	headPos   []int64
	// timeline recording (disabled by default).
	recTimeline bool
	// obs accumulates the run's metrics when a collector is attached
	// (see newRun); the nil case costs one branch per emit point.
	obs *obs.RunMetrics
	// faults is the injected-fault schedule; nil (the default) keeps
	// every fault path disabled and the machine's arithmetic
	// bit-identical to a fault-free build.
	faults *faults.Plan
	// ev buffers the run's decision-provenance events (see
	// attachEvents in events.go); nil keeps every event path disabled.
	// The ev* fields label emitted events and carry the current
	// trigger context.
	ev        *events.RunLog
	evProg    string
	evPolicy  string
	evPolTrig string
	evTrig    string
	evPred    float64
	evBE      float64
	evd       []evDisk
	// batch is the batched executor's per-disk constant cache,
	// allocated on first use (see batchScratchFor). Cached entries
	// depend only on the disk model, so they survive Reset.
	batch batchScratch
}

// obsState maps a power state (plus the active flag) onto the
// collector's residency labels.
func obsState(st Status, active bool) obs.DiskState {
	switch {
	case active:
		return obs.StateService
	case st == StStandby:
		return obs.StateStandby
	case st == StDown:
		return obs.StateSpinDown
	case st == StUp:
		return obs.StateSpinUp
	case st == StShift:
		return obs.StateRPMShift
	default:
		return obs.StateIdle
	}
}

// NewMachine returns a machine of n disks, all spinning at full speed
// with their timelines starting at time zero.
func NewMachine(n int, p disk.Params) *Machine {
	m := &Machine{p: p, tbl: disk.TableFor(p), disks: make([]dstate, n)}
	levels := p.NumLevels()
	residAll := make([]float64, n*levels)
	for i := range m.disks {
		m.disks[i].status = StSpinning
		m.disks[i].rpm = p.MaxRPM
		m.disks[i].resid = residAll[i*levels : (i+1)*levels : (i+1)*levels]
	}
	return m
}

// ReserveIdles preallocates each disk's idle-period list for the
// given per-disk request count (one idle period per request plus the
// trailing one), eliminating append growth on the simulation hot
// path. A single backing array serves all disks.
func (m *Machine) ReserveIdles(perDisk []int) {
	total := 0
	for d := range m.disks {
		if d < len(perDisk) {
			total += perDisk[d] + 1
		}
	}
	buf := make([]IdlePeriod, total)
	off := 0
	for d := range m.disks {
		if d >= len(perDisk) {
			break
		}
		c := perDisk[d] + 1
		m.disks[d].idles = buf[off : off : off+c]
		off += c
	}
}

// Reset returns the machine to its initial state (all disks spinning
// at full speed at time zero) while keeping every per-disk allocation
// — idle lists, residency accumulators, timelines — for reuse, so a
// simulation loop over many traces of the same shape allocates only
// on its first iteration.
func (m *Machine) Reset() {
	for d := range m.disks {
		s := &m.disks[d]
		idles, timeline, resid := s.idles[:0], s.timeline[:0], s.resid
		*s = dstate{status: StSpinning, rpm: m.p.MaxRPM, idles: idles, timeline: timeline, resid: resid}
		for i := range resid {
			resid[i] = 0
		}
	}
	for d := range m.evd {
		m.evd[d].pending = m.evd[d].pending[:0]
		m.evd[d].baseJ = 0
	}
	for i := range m.headPos {
		m.headPos[i] = 0
	}
}

// EnableDistanceSeek switches the machine from average-seek to
// distance-dependent seek times: each disk tracks its head position
// and ServiceBlock charges the square-root seek curve for the
// distance travelled.
func (m *Machine) EnableDistanceSeek(maxBlocks int64) {
	m.distSeek = true
	m.maxBlocks = maxBlocks
	m.headPos = make([]int64, len(m.disks))
}

// NumDisks returns the number of disks.
func (m *Machine) NumDisks() int { return len(m.disks) }

// Params returns the disk parameters.
func (m *Machine) Params() disk.Params { return m.p }

// CurRPM returns disk d's current (or shift-target) speed.
func (m *Machine) CurRPM(d int) int { return m.disks[d].rpm }

// StatusOf returns disk d's current status.
func (m *Machine) StatusOf(d int) Status { return m.disks[d].status }

// IdleFrom returns the completion time of disk d's last request
// (zero if the disk has not been accessed).
func (m *Machine) IdleFrom(d int) float64 { return m.disks[d].idleFrom }

// EnableTimeline turns on per-disk timeline recording; segments are
// returned by Timelines after Finish.
func (m *Machine) EnableTimeline() { m.recTimeline = true }

// AttachFaults threads a fault plan through the machine: spin-up
// attempts may fail and retry per the plan, remapped blocks pay their
// relocation seek, and requests inside degradation windows transfer
// slower. A nil plan detaches. The plan must cover at least the
// machine's disk count.
func (m *Machine) AttachFaults(p *faults.Plan) { m.faults = p }

// Timelines returns the recorded per-disk timelines (nil per disk
// unless EnableTimeline was called before simulation).
func (m *Machine) Timelines() [][]Segment {
	out := make([][]Segment, len(m.disks))
	for d := range m.disks {
		out[d] = m.disks[d].timeline
	}
	return out
}

// advance commits disk d's energy up to time t, resolving any
// transitional statuses that complete before t.
func (m *Machine) advance(d int, t float64) {
	s := &m.disks[d]
	for s.accT < t {
		switch s.status {
		case StSpinning:
			dt := t - s.accT
			pw := m.tbl.IdlePowerAt(s.rpm)
			s.stats.EnergyJ += pw * dt / 1e3
			s.stats.IdleEnergyJ += pw * dt / 1e3
			s.stats.IdleMS += dt
			s.addResidency(&m.p, s.rpm, dt)
			s.record(m.recTimeline, s.accT, t, StSpinning, s.rpm, pw, false)
			if m.obs != nil {
				m.obs.ObserveResidency(d, obs.StateIdle, s.rpm, dt)
			}
			s.accT = t
		case StStandby:
			dt := t - s.accT
			s.stats.EnergyJ += m.p.StandbyW * dt / 1e3
			s.stats.StandbyEnergyJ += m.p.StandbyW * dt / 1e3
			s.stats.StandbyMS += dt
			s.record(m.recTimeline, s.accT, t, StStandby, 0, m.p.StandbyW, false)
			if m.obs != nil {
				m.obs.ObserveResidency(d, obs.StateStandby, 0, dt)
			}
			s.accT = t
		case StDown, StUp, StShift:
			end := math.Min(t, s.statusUntil)
			dt := end - s.accT
			s.stats.EnergyJ += s.transPowerW * dt / 1e3
			s.stats.TransitionEnergyJ += s.transPowerW * dt / 1e3
			s.stats.TransitionMS += dt
			s.record(m.recTimeline, s.accT, end, s.status, s.rpm, s.transPowerW, false)
			if m.obs != nil {
				m.obs.ObserveResidency(d, obsState(s.status, false), s.rpm, dt)
			}
			s.accT = end
			if s.accT >= s.statusUntil {
				switch s.status {
				case StDown:
					s.status = StStandby
				case StUp:
					if s.upAborted {
						// The spin-up cascade gave up (injected
						// failures exhausted its retry budget); the
						// platters settle back into standby.
						s.upAborted = false
						s.status = StStandby
					} else {
						s.status = StSpinning
						s.rpm = m.p.MaxRPM
					}
				case StShift:
					s.status = StSpinning
				}
			}
		}
	}
}

// effectiveAt returns the earliest time >= t at which a new state
// change may begin on disk d (after any in-progress transition), and
// advances the disk there.
func (m *Machine) effectiveAt(d int, t float64) float64 {
	s := &m.disks[d]
	if t < s.accT {
		t = s.accT
	}
	if (s.status == StDown || s.status == StUp || s.status == StShift) && s.statusUntil > t {
		t = s.statusUntil
	}
	m.advance(d, t)
	return t
}

// SpinDownAt initiates a TPM spin-down on disk d at time t (or as
// soon after as the disk is free). It is a no-op if the disk is
// already in or heading to standby. t must not precede the disk's
// accounting cursor.
func (m *Machine) SpinDownAt(d int, t float64) {
	s := &m.disks[d]
	if s.status == StStandby || s.status == StDown {
		return
	}
	eff := m.effectiveAt(d, t)
	s.status = StDown
	s.statusUntil = eff + m.p.SpinDownMS
	s.transPowerW = m.p.SpinDownJ / m.p.SpinDownMS * 1e3
	s.stats.SpinDowns++
	if m.obs != nil {
		m.obs.Add(obs.OpSpinDown, 1)
	}
	if m.ev != nil {
		m.emitDecision(d, events.KindSpinDown, 0, eff)
	}
}

// SpinUpAt initiates a TPM spin-up on disk d at time t. It is a
// no-op unless the disk is in (or heading to) standby. Under an
// attached fault plan the spin-up may fail and retry; a
// pre-activation call that exhausts its retry budget (or its timeout
// cap) gives up, leaving the disk in standby for the next request to
// spin up on demand.
func (m *Machine) SpinUpAt(d int, t float64) {
	m.spinUp(d, t, false)
}

// spinUp implements SpinUpAt; onDemand marks the request-service
// path, on which the retry cascade is forced to succeed eventually
// (the degraded-mode no-deadlock guarantee).
func (m *Machine) spinUp(d int, t float64, onDemand bool) {
	s := &m.disks[d]
	if s.status != StStandby && s.status != StDown {
		return
	}
	eff := m.effectiveAt(d, t)
	if s.status != StStandby {
		// A queued spin-down resolved differently than expected;
		// nothing to do.
		return
	}
	if m.faults == nil || m.faults.Config().SpinUpFailProb <= 0 {
		s.status = StUp
		s.statusUntil = eff + m.p.SpinUpMS
		s.transPowerW = m.p.SpinUpJ / m.p.SpinUpMS * 1e3
	} else {
		// The whole cascade — attempts, backoffs — is modeled as one
		// transitional segment at its average power, so energy is
		// conserved exactly regardless of how many retries it holds.
		dur, energy, ok := m.spinUpCascade(d, eff, onDemand)
		s.status = StUp
		s.statusUntil = eff + dur
		s.transPowerW = energy / dur * 1e3
		s.upAborted = !ok
		s.upGaveUp = !ok
	}
	s.stats.SpinUps++
	if m.obs != nil {
		m.obs.Add(obs.OpSpinUp, 1)
	}
	if m.ev != nil {
		m.emitDecision(d, events.KindSpinUp, 0, eff)
	}
}

// spinUpCascade rolls the fault plan over one spin-up call's attempt
// sequence and returns the cascade's total duration and energy, and
// whether the platters end up at full speed. t is the cascade's start
// time (it stamps fault lifecycle events). Every attempt costs the
// full spin-up time and energy whether or not it succeeds; failed
// attempts are separated by exponentially growing backoff spent at
// standby power. A pre-activation cascade (onDemand false) gives up
// once the retry budget or the timeout cap is exhausted; the
// on-demand path instead forces success after the retry budget so a
// request can never be stuck behind an unlucky decision stream.
func (m *Machine) spinUpCascade(d int, t float64, onDemand bool) (durMS, energyJ float64, ok bool) {
	s := &m.disks[d]
	cfg := m.faults.Config()
	backoff := cfg.RetryBackoffMS
	for try := 0; ; try++ {
		attempt := s.upAttempts
		s.upAttempts++
		durMS += m.p.SpinUpMS
		energyJ += m.p.SpinUpJ
		if onDemand && try >= cfg.MaxRetries {
			// Forced success: the service path must terminate even at
			// a 100% failure probability.
			return durMS, energyJ, true
		}
		if !m.faults.SpinUpFails(d, attempt) {
			return durMS, energyJ, true
		}
		s.stats.SpinUpFailures++
		if m.obs != nil {
			m.obs.Add(obs.FaultSpinUpFail, 1)
		}
		if m.ev != nil {
			m.emitFault(d, t+durMS, obs.FaultSpinUpFail.Label())
		}
		if !onDemand {
			if try >= cfg.MaxRetries {
				return durMS, energyJ, false
			}
			if cfg.SpinUpTimeoutMS > 0 && durMS+backoff+m.p.SpinUpMS > cfg.SpinUpTimeoutMS {
				s.stats.SpinUpTimeouts++
				if m.obs != nil {
					m.obs.Add(obs.FaultTimeout, 1)
				}
				if m.ev != nil {
					m.emitFault(d, t+durMS, obs.FaultTimeout.Label())
				}
				return durMS, energyJ, false
			}
		}
		durMS += backoff
		energyJ += m.p.StandbyW * backoff / 1e3
		backoff *= 2
		s.stats.SpinUpRetries++
		if m.obs != nil {
			m.obs.Add(obs.FaultRetry, 1)
		}
		if m.ev != nil {
			m.emitFault(d, t+durMS, obs.FaultRetry.Label())
		}
	}
}

// SetRPMAt initiates an RPM modulation on disk d toward the given
// level at time t (or after the in-progress transition completes).
// It is a no-op if the disk is in standby or already at the level.
func (m *Machine) SetRPMAt(d int, t float64, rpm int) {
	s := &m.disks[d]
	if s.status == StStandby || s.status == StDown || s.status == StUp {
		return
	}
	rpm = m.p.ClampLevel(rpm)
	if s.rpm == rpm && s.status == StSpinning {
		return
	}
	eff := m.effectiveAt(d, t)
	if s.rpm == rpm {
		return
	}
	from := s.rpm
	s.status = StShift
	s.rpm = rpm
	dur := m.p.TransitionTimeMS(from, rpm)
	s.statusUntil = eff + dur
	s.transPowerW = m.tbl.TransitionEnergyJ(from, rpm) / dur * 1e3
	s.stats.RPMShifts++
	if m.obs != nil {
		m.obs.Add(obs.OpSetRPM, 1)
	}
	if m.ev != nil {
		m.emitDecision(d, events.KindRPMShift, rpm, eff)
	}
}

// ServiceBlock issues a request of the given size, starting at the
// given block, to disk d at time t. It records the idle period that
// ends at t, waits out any spin-up or shift in progress (spinning the
// disk up from standby on demand), services the request, and returns
// the completion time. When distance-aware seeking is enabled, the
// seek time follows the head movement from the previous request's end
// position; a negative block keeps the average-seek model for this
// request. A non-nil error (*NotSpinningError) reports a
// machine-invariant violation: the disk failed to reach full speed.
func (m *Machine) ServiceBlock(d int, t float64, bytes, block int64) (float64, error) {
	s := &m.disks[d]
	idleLen := t - s.idleFrom
	s.idles = append(s.idles, IdlePeriod{StartMS: s.idleFrom, LenMS: idleLen})
	pre := s.status
	start := m.effectiveAt(d, t)
	if s.status == StStandby {
		if m.faults != nil && s.upGaveUp {
			// A pre-activation cascade gave up on this disk; the
			// request degrades gracefully to on-demand service.
			s.upGaveUp = false
			s.stats.Fallbacks++
			if m.obs != nil {
				m.obs.Add(obs.FaultFallback, 1)
			}
			if m.ev != nil {
				m.emitFault(d, start, obs.FaultFallback.Label())
			}
		}
		// On-demand spin-up: the request pays the full delay. The
		// service path forces the retry cascade to succeed, so one
		// call always leaves the disk heading to full speed.
		if m.ev != nil {
			m.setTrigger(events.TrigDemand, 0)
			m.spinUp(d, start, true)
			m.restoreTrigger()
		} else {
			m.spinUp(d, start, true)
		}
		start = m.effectiveAt(d, start)
	}
	if s.status != StSpinning {
		return 0, &NotSpinningError{Disk: d, Status: s.status}
	}
	if m.ev != nil {
		// The idle period ending here is fully accounted (the disk has
		// been advanced through start): resolve its pending decisions.
		m.resolvePeriod(d, idleLen, start-s.idleFrom, false)
	}
	s.stats.WaitMS += start - t
	seek := m.p.AvgSeekMS
	remapped := m.faults != nil && block >= 0 && m.faults.Remapped(d, block)
	if remapped {
		s.stats.RemapHits++
		if m.obs != nil {
			m.obs.Add(obs.FaultRemap, 1)
		}
		if m.ev != nil {
			m.emitFault(d, start, obs.FaultRemap.Label())
		}
	}
	if m.distSeek && block >= 0 {
		target := block
		if remapped {
			// The bad sector is served from the spare area near the
			// end of the platter; the head genuinely travels there.
			target = m.faults.RemapTarget(block, m.maxBlocks)
		}
		dist := target - m.headPos[d]
		if dist < 0 {
			dist = -dist
		}
		seek = m.p.SeekTimeMS(dist, m.maxBlocks)
		m.headPos[d] = target + bytes/512
	} else if remapped {
		// Average-seek model: the relocation costs a flat penalty.
		seek += m.faults.Config().RemapPenaltyMS
	}
	svc := m.tbl.ServiceTimeSeekMS(s.rpm, bytes, seek)
	if m.faults != nil {
		if factor, _ := m.faults.Degraded(d, start); factor > 1 {
			extra := m.tbl.TransferTimeMS(s.rpm, bytes) * (factor - 1)
			svc += extra
			s.stats.DegradedHits++
			s.stats.DegradedExtraMS += extra
			if m.obs != nil {
				m.obs.Add(obs.FaultDegraded, 1)
			}
			if m.ev != nil {
				m.emitFault(d, start, obs.FaultDegraded.Label())
			}
		}
	}
	pw := m.tbl.ActivePowerAt(s.rpm)
	s.stats.EnergyJ += pw * svc / 1e3
	s.stats.ActiveEnergyJ += pw * svc / 1e3
	s.stats.ActiveMS += svc
	s.addResidency(&m.p, s.rpm, svc)
	s.stats.Requests++
	end := start + svc
	if m.obs != nil {
		m.obs.ObserveResidency(d, obs.StateService, s.rpm, svc)
		m.obs.ObserveRequest(d, svc, start-t, idleLen)
		if start > t {
			// The request blocked on a spin-up: the paper's
			// pre-activation failure mode. "inflight" means the
			// spin-up was already underway (issued too late);
			// "ondemand" means the disk was still in (or heading to)
			// standby and the request paid the full delay.
			switch pre {
			case StUp:
				m.obs.Add(obs.MissInflight, 1)
			case StStandby, StDown:
				m.obs.Add(obs.MissOnDemand, 1)
			}
		}
	}
	if m.ev != nil {
		if start > t {
			// Same classification as the collector's spinup-miss
			// counters; the event also carries the wait and the idle
			// period so a timeline can be rebuilt from the log alone.
			switch pre {
			case StUp:
				m.emitMiss(d, t, idleLen, start-t, false)
			case StStandby, StDown:
				m.emitMiss(d, t, idleLen, start-t, true)
			}
		}
		// A new idle period starts at end: snapshot the disk's energy
		// so the period's actual cost is a subtraction at resolution.
		m.evd[d].baseJ = s.stats.EnergyJ
	}
	s.record(m.recTimeline, start, end, StSpinning, s.rpm, pw, true)
	s.accT = end
	s.idleFrom = end
	return end, nil
}

// Finish commits all disks' energy up to the program end time and
// returns the per-disk statistics and idle-period records (including
// the trailing idle period of each disk).
func (m *Machine) Finish(endT float64) ([]DiskStats, [][]IdlePeriod) {
	stats := make([]DiskStats, len(m.disks))
	idles := make([][]IdlePeriod, len(m.disks))
	for d := range m.disks {
		m.advance(d, endT)
		s := &m.disks[d]
		// The trailing idle period is always recorded (possibly with
		// zero length) so idle-period lists align index-for-index
		// with the compiler's per-gap plans.
		trail := endT - s.idleFrom
		if trail < 0 {
			trail = 0
		}
		s.idles = append(s.idles, IdlePeriod{StartMS: s.idleFrom, LenMS: trail})
		if m.ev != nil {
			// Trailing-period decisions resolve against the trailing
			// oracle (no spin-up back is ever needed).
			m.resolvePeriod(d, trail, trail, true)
		}
		// Materialize the per-level residency map from the dense
		// accumulator (plus any overflow entries).
		if s.stats.RPMResidencyMS == nil {
			var touched int
			for _, ms := range s.resid {
				if ms != 0 {
					touched++
				}
			}
			if touched+len(s.residOverflow) > 0 {
				rm := make(map[int]float64, touched+len(s.residOverflow))
				for i, ms := range s.resid {
					if ms != 0 {
						rm[m.p.MinRPM+i*m.p.RPMStep] = ms
					}
				}
				for rpm, ms := range s.residOverflow {
					rm[rpm] += ms
				}
				s.stats.RPMResidencyMS = rm
			}
		}
		stats[d] = s.stats
		idles[d] = s.idles
	}
	return stats, idles
}
