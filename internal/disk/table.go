package disk

import (
	"math"
	"sync"
)

// Table is a precomputed power and timing table for one Params value.
// The DRPM spindle power model costs a math.Pow per query, and the
// derived quantities (transition energies, dip energies, best-RPM
// scans) each fan out into many such queries; profiles show those
// evaluations dominating both the compiler instrumentation pass and
// the simulator's per-request accounting. A Table evaluates every
// per-level quantity once — by calling the corresponding Params
// method, so each cached value is bitwise identical to what the
// uncached code computes — and serves every later query as an array
// load indexed by level. Methods that combine cached values (the dip
// energies, the best-RPM scans, ServiceTimeSeekIdx) replicate the
// exact floating-point operation order of their Params counterparts,
// so a Table answer never differs from the Params one by a bit.
//
// Decide is the one rule that chooses what a disk does with an idle
// period. The DRPM choice answers most queries from a breakpoint table
// instead of the scan (see buildBest); wherever the table cannot prove
// that the scan would pick its level, it runs the scan.
type Table struct {
	// P is the Params the table was built from.
	P Params

	n      int   // number of levels, 0 when Params are unusable
	levels []int // ascending, MinRPM..MaxRPM by RPMStep

	idleW     []float64 // IdlePowerAt per level
	activeW   []float64 // ActivePowerAt per level
	rotMS     []float64 // AvgRotMS / (level/MaxRPM) per level
	xferDenom []float64 // TransferMBps*1e6*(level/MaxRPM) per level
	transMS   []float64 // TransitionTimeMS(MaxRPM, level) per level
	transJ    []float64 // TransitionEnergyJ(MaxRPM, level) per level
	transJ2   []float64 // TransitionEnergyJ(MaxRPM, level)*2 per level
	transPair []float64 // TransitionEnergyJ(level_i, level_j), i*n+j
	// best is the best-RPM breakpoint table, ascending and disjoint:
	// on every idle length inside a segment the scan picks its level.
	best []bestSeg
}

// bestSeg is one segment of the best-RPM breakpoint table: for every
// idle length in (lo, hi) the scan's winner is level index lvl.
type bestSeg struct {
	lo, hi float64
	lvl    int
}

var tableCache sync.Map // Params -> *Table

// TableFor returns the memoized Table for p, building it on first
// use. Params is a comparable value type, so the cache key is the
// full parameter set: two configurations differing in any field get
// distinct tables. Safe for concurrent use.
func TableFor(p Params) *Table {
	if v, ok := tableCache.Load(p); ok {
		return v.(*Table)
	}
	v, _ := tableCache.LoadOrStore(p, newTable(p))
	return v.(*Table)
}

func newTable(p Params) *Table {
	t := &Table{P: p}
	if p.RPMStep <= 0 || p.MinRPM <= 0 || p.MinRPM > p.MaxRPM ||
		(p.MaxRPM-p.MinRPM)%p.RPMStep != 0 {
		return t // degenerate Params: no levels, DRPM never dips
	}
	t.n = p.NumLevels()
	t.levels = p.Levels()
	t.idleW = make([]float64, t.n)
	t.activeW = make([]float64, t.n)
	t.rotMS = make([]float64, t.n)
	t.xferDenom = make([]float64, t.n)
	t.transMS = make([]float64, t.n)
	t.transJ = make([]float64, t.n)
	t.transJ2 = make([]float64, t.n)
	t.transPair = make([]float64, t.n*t.n)
	for i, r := range t.levels {
		frac := float64(r) / float64(p.MaxRPM)
		t.idleW[i] = p.IdlePowerAt(r)
		t.activeW[i] = p.ActivePowerAt(r)
		t.rotMS[i] = p.AvgRotMS / frac
		t.xferDenom[i] = p.TransferMBps * 1e6 * frac
		t.transMS[i] = p.TransitionTimeMS(p.MaxRPM, r)
	}
	// Params.TransitionEnergyJ sums the per-step energies from the
	// faster level down; extending each sum one step at a time adds
	// the same terms in the same order, in O(n²) instead of O(n³).
	for hi := range t.levels {
		var e float64
		for lo := hi; lo >= 0; lo-- {
			if lo < hi {
				e += t.idleW[lo+1] * p.RPMStepTimeMS / 1e3
			}
			t.transPair[hi*t.n+lo] = e
			t.transPair[lo*t.n+hi] = e
		}
	}
	for i := range t.levels {
		t.transJ[i] = t.transPair[(t.n-1)*t.n+i]
		t.transJ2[i] = t.transJ[i] * 2
	}
	t.best = t.buildBest()
	return t
}

// ClampIndex returns the level index of Params.ClampLevel(rpm). The
// table must not be degenerate.
func (t *Table) ClampIndex(rpm int) int {
	switch {
	case rpm >= t.P.MaxRPM:
		return t.n - 1
	case rpm <= t.P.MinRPM:
		return 0
	}
	return (rpm - t.P.MinRPM) / t.P.RPMStep
}

// Level returns the rpm of level index i.
func (t *Table) Level(i int) int { return t.levels[i] }

// The ...Idx accessors serve a query for level index i, with no rpm
// to index conversion: the simulator keeps each disk's level index
// next to its rpm. Each returns the value its Params counterpart
// returns for Level(i).

// IdlePowerIdx is Params.IdlePowerAt(Level(i)).
func (t *Table) IdlePowerIdx(i int) float64 { return t.idleW[i] }

// ActivePowerIdx is Params.ActivePowerAt(Level(i)).
func (t *Table) ActivePowerIdx(i int) float64 { return t.activeW[i] }

// ServiceTimeSeekIdx is Params.ServiceTimeSeekMS(Level(i), bytes,
// seekMS).
func (t *Table) ServiceTimeSeekIdx(i int, bytes int64, seekMS float64) float64 {
	return seekMS + t.rotMS[i] + float64(bytes)/t.xferDenom[i]*1e3
}

// TransferTimeIdx is Params.TransferTimeMS(Level(i), bytes).
func (t *Table) TransferTimeIdx(i int, bytes int64) float64 {
	return float64(bytes) / t.xferDenom[i] * 1e3
}

// TransitionEnergyIdx is Params.TransitionEnergyJ(Level(i), Level(j)).
func (t *Table) TransitionEnergyIdx(i, j int) float64 { return t.transPair[i*t.n+j] }

// Mechanism is the power-management mechanism Decide spends an idle
// period with.
type Mechanism uint8

// The mechanisms.
const (
	// TPM may spin the disk down to standby.
	TPM Mechanism = iota
	// DRPM may dip the disk to a lower RPM level.
	DRPM
)

// Standby is the level Decide returns for a spin-down.
const Standby = 0

// Decide is the idle-period decision rule: what a disk at full speed
// does with an idle period of idleMS, chosen with knowledge of its
// length. The compiler applies it to predicted idle lengths, the ideal
// schemes ITPM and IDRPM, the Table 3 analysis and the regret oracle
// to actual ones. A period that is not trailing ends with an access,
// so the disk must be back at full speed by then; a trailing period
// ends the program and needs no way back.
//
// It returns the level to spend the period at (MaxRPM to stay at full
// speed, Standby to spin down, or the RPM level to dip to) and the
// period's energy at that level. DRPM picks the level
// Params.BestRPMForIdle or BestRPMForTrailingIdle picks; TPM spins
// down when standby costs strictly less than idling, judged by
// Params.StandbyEnergyJ or, for a trailing period,
// Params.TrailingStandbyWins.
func (t *Table) Decide(m Mechanism, idleMS float64, trailing bool) (level int, energyJ float64) {
	p := &t.P
	switch {
	case m == DRPM && trailing:
		return t.bestTrailingRPM(idleMS)
	case m == DRPM:
		return t.bestRPM(idleMS)
	case trailing:
		if p.TrailingStandbyWins(idleMS) {
			return Standby, p.SpinDownJ + p.StandbyW*(idleMS-p.SpinDownMS)/1e3
		}
	default:
		if e := p.StandbyEnergyJ(idleMS); e < p.IdleEnergyJ(idleMS) {
			return Standby, e
		}
	}
	return p.MaxRPM, p.IdleEnergyJ(idleMS)
}

// OracleEnergyJ is the least energy a clairvoyant policy can spend on
// an idle period of idleMS: the cheaper of Decide's TPM and DRPM
// choices for it. The event log charges decisions regret against it.
func (t *Table) OracleEnergyJ(idleMS float64, trailing bool) float64 {
	_, tpm := t.Decide(TPM, idleMS, trailing)
	if _, drpm := t.Decide(DRPM, idleMS, trailing); drpm < tpm {
		return drpm
	}
	return tpm
}

// dipByIndex is Params.DipEnergyJ for the i-th level, with the
// transition time/energy pulled from the table and the remaining
// arithmetic in the original order.
func (t *Table) dipByIndex(idleMS float64, i int) float64 {
	if t.levels[i] == t.P.MaxRPM {
		return t.P.IdleEnergyJ(idleMS)
	}
	down := t.transMS[i]
	if down+down > idleMS {
		return math.Inf(1)
	}
	stay := idleMS - down - down
	return t.transJ2[i] + t.idleW[i]*stay/1e3
}

// bestRPM is Params.BestRPMForIdle served from the table. An idle
// length inside a segment of the breakpoint table gets the
// segment's level and that level's dipByIndex energy, the very
// expression the scan evaluates, so rpm and energy are the scan's to
// the bit. Any other length (near a breakpoint, outside the certified
// range, or not finite and positive: every comparison below is false
// for NaN) runs the scan.
func (t *Table) bestRPM(idleMS float64) (int, float64) {
	segs := t.best
	lo, hi := 0, len(segs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if segs[m].hi > idleMS {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo < len(segs) && idleMS > segs[lo].lo {
		i := segs[lo].lvl
		return t.levels[i], t.dipByIndex(idleMS, i)
	}
	return t.scanBest(idleMS)
}

// scanBest is Params.BestRPMForIdle's scan over the table: the same
// ascending scan with the same strict-less comparison, without the
// Levels allocation or the per-level pow evaluations.
func (t *Table) scanBest(idleMS float64) (int, float64) {
	best := t.P.MaxRPM
	bestE := t.P.IdleEnergyJ(idleMS)
	for i := 0; i < t.n; i++ {
		if e := t.dipByIndex(idleMS, i); e < bestE {
			bestE = e
			best = t.levels[i]
		}
	}
	return best, bestE
}

// bestTrailingRPM is Params.BestRPMForTrailingIdle served from the
// table.
func (t *Table) bestTrailingRPM(idleMS float64) (int, float64) {
	best := t.P.MaxRPM
	bestE := t.P.IdleEnergyJ(idleMS)
	for i := 0; i < t.n; i++ {
		tr := t.transMS[i]
		if tr > idleMS {
			continue
		}
		e := t.transJ[i] + t.idleW[i]*(idleMS-tr)/1e3
		if e < bestE {
			best, bestE = t.levels[i], e
		}
	}
	return best, bestE
}
