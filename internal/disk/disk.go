// Package disk models the server-class disk used throughout the
// paper's evaluation: the IBM Ultrastar 36Z15 (Table 1), extended
// with the DRPM multi-speed model of Gurumurthi et al. All times are
// float64 milliseconds and all energies are joules; power is watts
// (J = W * ms / 1000).
//
// The DRPM spindle power model is P(r) = Pe + Pr*(r/rmax)^k with the
// electronics floor Pe and exponent k fitted so that idle power is
// 10.2 W at 15000 RPM (the datasheet figure) and approximately the
// standby power at the minimum 3000 RPM level, matching the published
// DRPM behaviour. Transition energy is billed at the idle power of
// the faster level involved, the paper's stated conservative
// assumption.
package disk

import (
	"fmt"
	"math"
)

// Params holds every simulation parameter of Table 1 plus the derived
// DRPM power-model constants.
//
// Its methods take pointer receivers. Params is about 200 bytes, and
// Go copies a value receiver even where it inlines the call, so value
// receivers cost the simulator a copy of the whole struct on every
// per-request query. Params stays a comparable value type: it is
// passed and stored by value, and it keys the Table memo.
type Params struct {
	// Identity (informational).
	Model     string
	Interface string
	// CapacityGB is the formatted capacity in gigabytes.
	CapacityGB float64

	// MaxRPM is the full rotation speed (15000 RPM).
	MaxRPM int
	// AvgSeekMS is the average seek time in milliseconds.
	AvgSeekMS float64
	// SeekMinMS and SeekMaxMS bound the distance-dependent seek
	// model (track-to-track and full-stroke); SeekTimeMS
	// interpolates with the classical square-root curve. The
	// defaults are calibrated so a uniformly random access pattern
	// averages AvgSeekMS.
	SeekMinMS float64
	SeekMaxMS float64
	// AvgRotMS is the average rotational latency at MaxRPM (half a
	// revolution).
	AvgRotMS float64
	// TransferMBps is the internal transfer rate at MaxRPM; it scales
	// linearly with rotation speed.
	TransferMBps float64

	// ActiveW, IdleW, StandbyW are the mode power draws at MaxRPM.
	ActiveW  float64
	IdleW    float64
	StandbyW float64

	// TPM spin transition costs (idle <-> standby).
	SpinDownJ  float64
	SpinDownMS float64
	SpinUpJ    float64
	SpinUpMS   float64

	// DRPM parameters.
	MinRPM  int
	RPMStep int
	// RPMStepTimeMS is the time to modulate the spindle by one RPM
	// step. The paper states RPM modulation is much faster than TPM
	// spin-up/down; the value here is fitted so that the idle gaps of
	// the evaluated workloads are exploitable by (I)DRPM, which the
	// paper's reported savings imply.
	RPMStepTimeMS float64
	// WindowSize is the reactive DRPM controller's request window
	// (30 in the paper, chosen for single-program workloads).
	WindowSize int
	// LowerTolerancePct and UpperTolerancePct bound the per-window
	// response-time change within which the reactive DRPM controller
	// steps the speed down, or above which it restores full speed.
	LowerTolerancePct float64
	UpperTolerancePct float64

	// ElectronicsW is the non-spindle power floor Pe of the DRPM
	// power model.
	ElectronicsW float64
	// SpindleExp is the spindle power exponent k (~2.8 for air drag).
	SpindleExp float64
}

// DefaultParams returns the Table 1 configuration: an IBM Ultrastar
// 36Z15 with DRPM support over 3000..15000 RPM in 1200 RPM steps.
func DefaultParams() Params {
	return Params{
		Model:             "IBM Ultrastar 36Z15",
		Interface:         "SCSI",
		CapacityGB:        18,
		MaxRPM:            15000,
		AvgSeekMS:         3.4,
		SeekMinMS:         0.6,
		SeekMaxMS:         5.9,
		AvgRotMS:          2.0,
		TransferMBps:      55,
		ActiveW:           13.5,
		IdleW:             10.2,
		StandbyW:          2.5,
		SpinDownJ:         13,
		SpinDownMS:        1500,
		SpinUpJ:           135,
		SpinUpMS:          10900,
		MinRPM:            3000,
		RPMStep:           1200,
		RPMStepTimeMS:     3.5,
		WindowSize:        30,
		LowerTolerancePct: 5,
		UpperTolerancePct: 15,
		ElectronicsW:      2.0,
		SpindleExp:        2.8,
	}
}

// Validate checks parameter sanity. Every float field must be finite:
// a NaN would slip through ordered comparisons (NaN < x is always
// false) and silently poison energy totals downstream.
func (p *Params) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"CapacityGB", p.CapacityGB},
		{"AvgSeekMS", p.AvgSeekMS},
		{"SeekMinMS", p.SeekMinMS},
		{"SeekMaxMS", p.SeekMaxMS},
		{"AvgRotMS", p.AvgRotMS},
		{"TransferMBps", p.TransferMBps},
		{"ActiveW", p.ActiveW},
		{"IdleW", p.IdleW},
		{"StandbyW", p.StandbyW},
		{"SpinDownJ", p.SpinDownJ},
		{"SpinDownMS", p.SpinDownMS},
		{"SpinUpJ", p.SpinUpJ},
		{"SpinUpMS", p.SpinUpMS},
		{"RPMStepTimeMS", p.RPMStepTimeMS},
		{"LowerTolerancePct", p.LowerTolerancePct},
		{"UpperTolerancePct", p.UpperTolerancePct},
		{"ElectronicsW", p.ElectronicsW},
		{"SpindleExp", p.SpindleExp},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("disk: %s is %v, must be finite", f.name, f.v)
		}
	}
	switch {
	case p.MaxRPM <= 0 || p.MinRPM <= 0 || p.MinRPM > p.MaxRPM:
		return fmt.Errorf("disk: bad RPM range [%d,%d]", p.MinRPM, p.MaxRPM)
	case p.RPMStep <= 0:
		return fmt.Errorf("disk: non-positive RPM step %d", p.RPMStep)
	case (p.MaxRPM-p.MinRPM)%p.RPMStep != 0:
		return fmt.Errorf("disk: RPM step %d does not divide range [%d,%d]", p.RPMStep, p.MinRPM, p.MaxRPM)
	case p.AvgSeekMS < 0 || p.AvgRotMS <= 0 || p.TransferMBps <= 0:
		return fmt.Errorf("disk: bad timing parameters")
	case p.SeekMinMS < 0 || p.SeekMaxMS < p.SeekMinMS:
		return fmt.Errorf("disk: bad seek curve [%g, %g]", p.SeekMinMS, p.SeekMaxMS)
	case p.ActiveW < p.IdleW || p.IdleW < p.StandbyW || p.StandbyW < 0:
		return fmt.Errorf("disk: power ordering violated (active %.1f, idle %.1f, standby %.1f)", p.ActiveW, p.IdleW, p.StandbyW)
	case p.SpinDownMS < 0 || p.SpinUpMS < 0 || p.SpinDownJ < 0 || p.SpinUpJ < 0:
		return fmt.Errorf("disk: negative TPM transition cost")
	case p.RPMStepTimeMS <= 0:
		return fmt.Errorf("disk: non-positive RPM step time")
	case p.WindowSize <= 0:
		return fmt.Errorf("disk: non-positive window size")
	case p.ElectronicsW < 0 || p.ElectronicsW >= p.IdleW:
		return fmt.Errorf("disk: electronics floor %.1f outside [0, idle)", p.ElectronicsW)
	case p.SpindleExp <= 0:
		return fmt.Errorf("disk: non-positive spindle exponent")
	}
	return nil
}

// Levels returns the available RPM levels in ascending order,
// MinRPM..MaxRPM by RPMStep.
func (p *Params) Levels() []int {
	n := (p.MaxRPM-p.MinRPM)/p.RPMStep + 1
	out := make([]int, n)
	for i := range out {
		out[i] = p.MinRPM + i*p.RPMStep
	}
	return out
}

// NumLevels returns the number of RPM levels.
func (p *Params) NumLevels() int { return (p.MaxRPM-p.MinRPM)/p.RPMStep + 1 }

// LevelIndex returns the index of rpm within Levels, or -1 if rpm is
// not an exact level.
func (p *Params) LevelIndex(rpm int) int {
	if rpm < p.MinRPM || rpm > p.MaxRPM || (rpm-p.MinRPM)%p.RPMStep != 0 {
		return -1
	}
	return (rpm - p.MinRPM) / p.RPMStep
}

// ClampLevel returns the nearest valid level at or below rpm (at
// least MinRPM).
func (p *Params) ClampLevel(rpm int) int {
	if rpm >= p.MaxRPM {
		return p.MaxRPM
	}
	if rpm <= p.MinRPM {
		return p.MinRPM
	}
	return p.MinRPM + (rpm-p.MinRPM)/p.RPMStep*p.RPMStep
}

// IdlePowerAt returns the power drawn while idle (spinning, not
// servicing) at the given RPM.
func (p *Params) IdlePowerAt(rpm int) float64 {
	frac := float64(rpm) / float64(p.MaxRPM)
	return p.ElectronicsW + (p.IdleW-p.ElectronicsW)*math.Pow(frac, p.SpindleExp)
}

// ActivePowerAt returns the power drawn while servicing a request at
// the given RPM. The active-idle delta (head positioning and channel
// electronics) is modelled as speed independent.
func (p *Params) ActivePowerAt(rpm int) float64 {
	return p.IdlePowerAt(rpm) + (p.ActiveW - p.IdleW)
}

// ServiceTimeMS returns the time to service one request of the given
// size at the given RPM: average seek, rotational latency scaled
// inversely with speed, and media transfer scaled linearly with
// speed.
func (p *Params) ServiceTimeMS(rpm int, bytes int64) float64 {
	return p.ServiceTimeSeekMS(rpm, bytes, p.AvgSeekMS)
}

// ServiceTimeSeekMS is ServiceTimeMS with an explicit seek time,
// for distance-aware simulation.
func (p *Params) ServiceTimeSeekMS(rpm int, bytes int64, seekMS float64) float64 {
	frac := float64(rpm) / float64(p.MaxRPM)
	rot := p.AvgRotMS / frac
	return seekMS + rot + p.TransferTimeMS(rpm, bytes)
}

// TransferTimeMS returns the media-transfer component of a request's
// service time: the transfer rate scales linearly with rotation
// speed.
func (p *Params) TransferTimeMS(rpm int, bytes int64) float64 {
	frac := float64(rpm) / float64(p.MaxRPM)
	return float64(bytes) / (p.TransferMBps * 1e6 * frac) * 1e3
}

// SeekTimeMS returns the distance-dependent seek time for a head
// movement of dist blocks on a disk of maxBlocks, using the
// classical square-root seek curve between SeekMinMS (track to
// track) and SeekMaxMS (full stroke). A zero distance needs no seek.
func (p *Params) SeekTimeMS(dist, maxBlocks int64) float64 {
	if dist <= 0 || maxBlocks <= 0 {
		return 0
	}
	if dist > maxBlocks {
		dist = maxBlocks
	}
	frac := float64(dist) / float64(maxBlocks)
	return p.SeekMinMS + (p.SeekMaxMS-p.SeekMinMS)*math.Sqrt(frac)
}

// CapacityBlocks returns the disk capacity in 512-byte blocks.
func (p *Params) CapacityBlocks() int64 {
	return int64(p.CapacityGB * 1e9 / 512)
}

// TransitionTimeMS returns the time to modulate the spindle between
// two RPM levels (linear in the number of steps).
func (p *Params) TransitionTimeMS(from, to int) float64 {
	d := from - to
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(p.RPMStep) * p.RPMStepTimeMS
}

// TransitionEnergyJ returns the energy consumed by an RPM modulation.
// Per the paper's conservative assumption, each step is billed at the
// idle power of the faster level involved in that step.
func (p *Params) TransitionEnergyJ(from, to int) float64 {
	if from == to {
		return 0
	}
	lo, hi := from, to
	if lo > hi {
		lo, hi = hi, lo
	}
	var e float64
	for r := hi; r > lo; r -= p.RPMStep {
		e += p.IdlePowerAt(r) * p.RPMStepTimeMS / 1e3
	}
	return e
}

// TPMBreakEvenMS returns the minimum idle-period length for which
// spinning down to standby and back saves energy over idling, and
// for which the spin-down + spin-up sequence fits inside the period.
func (p *Params) TPMBreakEvenMS() float64 {
	transMS := p.SpinDownMS + p.SpinUpMS
	// Solve IdleW*T > SpinDownJ + SpinUpJ + StandbyW*(T - trans).
	denom := p.IdleW - p.StandbyW
	if denom <= 0 {
		return math.Inf(1)
	}
	t := (p.SpinDownJ + p.SpinUpJ - p.StandbyW*transMS/1e3) * 1e3 / denom
	if t < transMS {
		t = transMS
	}
	return t
}

// IdleEnergyJ returns the energy of spending an idle period of the
// given length entirely at full-speed idle.
func (p *Params) IdleEnergyJ(idleMS float64) float64 {
	return p.IdleW * idleMS / 1e3
}

// DipEnergyJ returns the energy of an idle period of the given length
// during which the disk ramps down to the given RPM level, stays
// there, and ramps back to full speed in time for the next access.
// It returns +Inf when the two transitions do not fit in the period.
func (p *Params) DipEnergyJ(idleMS float64, rpm int) float64 {
	if rpm == p.MaxRPM {
		return p.IdleEnergyJ(idleMS)
	}
	down := p.TransitionTimeMS(p.MaxRPM, rpm)
	up := down
	if down+up > idleMS {
		return math.Inf(1)
	}
	stay := idleMS - down - up
	return p.TransitionEnergyJ(p.MaxRPM, rpm)*2 + p.IdlePowerAt(rpm)*stay/1e3
}

// StandbyEnergyJ returns the energy of an idle period of the given
// length during which the disk spins down to standby and back up in
// time for the next access (TPM with perfect pre-activation). It
// returns +Inf when the transitions do not fit.
func (p *Params) StandbyEnergyJ(idleMS float64) float64 {
	trans := p.SpinDownMS + p.SpinUpMS
	if trans > idleMS {
		return math.Inf(1)
	}
	return p.SpinDownJ + p.SpinUpJ + p.StandbyW*(idleMS-trans)/1e3
}

// BestRPMForIdle returns the RPM level minimizing the energy of an
// idle period of the given length (including both transitions), and
// that minimum energy. For periods too short to exploit it returns
// (MaxRPM, full-speed idle energy).
func (p *Params) BestRPMForIdle(idleMS float64) (int, float64) {
	best := p.MaxRPM
	bestE := p.IdleEnergyJ(idleMS)
	for _, r := range p.Levels() {
		if e := p.DipEnergyJ(idleMS, r); e < bestE {
			bestE = e
			best = r
		}
	}
	return best, bestE
}

// BestRPMForTrailingIdle returns the RPM level minimizing the energy
// of a trailing idle period — one after which the disk never needs
// to return to full speed — and that minimum energy.
func (p *Params) BestRPMForTrailingIdle(idleMS float64) (int, float64) {
	best := p.MaxRPM
	bestE := p.IdleEnergyJ(idleMS)
	for _, r := range p.Levels() {
		tr := p.TransitionTimeMS(p.MaxRPM, r)
		if tr > idleMS {
			continue
		}
		e := p.TransitionEnergyJ(p.MaxRPM, r) + p.IdlePowerAt(r)*(idleMS-tr)/1e3
		if e < bestE {
			best, bestE = r, e
		}
	}
	return best, bestE
}

// TrailingStandbyWins reports whether spinning down (with no
// subsequent spin-up) saves energy over idling for a trailing idle
// period of the given length.
func (p *Params) TrailingStandbyWins(idleMS float64) bool {
	if idleMS < p.SpinDownMS {
		return false
	}
	return p.SpinDownJ+p.StandbyW*(idleMS-p.SpinDownMS)/1e3 < p.IdleW*idleMS/1e3
}
