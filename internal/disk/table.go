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
// load. Methods that combine cached values (DipEnergyJ, the best-RPM
// scans, ServiceTimeSeekMS) replicate the exact floating-point
// operation order of their Params counterparts, so switching a call
// site to the Table never changes a result bit.
//
// Queries for an rpm that is not an exact level fall back to the
// Params method; the simulator and compiler only ever use exact
// levels, so the fast path is the only one exercised in practice.
//
// BestRPMForIdle answers most queries from a breakpoint table instead
// of the scan (see buildBest); wherever the table cannot prove that
// the scan would pick its level, it runs the scan.
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
		return t // degenerate Params: every query falls back
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

// idx returns the level index of rpm, or -1 when rpm is not an exact
// level (or the table is degenerate).
func (t *Table) idx(rpm int) int {
	if t.n == 0 || rpm < t.P.MinRPM || rpm > t.P.MaxRPM || (rpm-t.P.MinRPM)%t.P.RPMStep != 0 {
		return -1
	}
	return (rpm - t.P.MinRPM) / t.P.RPMStep
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
// next to its rpm. Each returns the value its rpm-keyed counterpart
// returns for Level(i).

// IdlePowerIdx is IdlePowerAt(Level(i)).
func (t *Table) IdlePowerIdx(i int) float64 { return t.idleW[i] }

// ActivePowerIdx is ActivePowerAt(Level(i)).
func (t *Table) ActivePowerIdx(i int) float64 { return t.activeW[i] }

// ServiceTimeSeekIdx is ServiceTimeSeekMS(Level(i), bytes, seekMS).
func (t *Table) ServiceTimeSeekIdx(i int, bytes int64, seekMS float64) float64 {
	return seekMS + t.rotMS[i] + float64(bytes)/t.xferDenom[i]*1e3
}

// TransferTimeIdx is Params.TransferTimeMS(Level(i), bytes).
func (t *Table) TransferTimeIdx(i int, bytes int64) float64 {
	return float64(bytes) / t.xferDenom[i] * 1e3
}

// TransitionEnergyIdx is TransitionEnergyJ(Level(i), Level(j)).
func (t *Table) TransitionEnergyIdx(i, j int) float64 { return t.transPair[i*t.n+j] }

// IdlePowerAt is Params.IdlePowerAt served from the table.
func (t *Table) IdlePowerAt(rpm int) float64 {
	if i := t.idx(rpm); i >= 0 {
		return t.idleW[i]
	}
	return t.P.IdlePowerAt(rpm)
}

// ActivePowerAt is Params.ActivePowerAt served from the table.
func (t *Table) ActivePowerAt(rpm int) float64 {
	if i := t.idx(rpm); i >= 0 {
		return t.activeW[i]
	}
	return t.P.ActivePowerAt(rpm)
}

// ServiceTimeMS is Params.ServiceTimeMS served from the table.
func (t *Table) ServiceTimeMS(rpm int, bytes int64) float64 {
	return t.ServiceTimeSeekMS(rpm, bytes, t.P.AvgSeekMS)
}

// ServiceTimeSeekMS is Params.ServiceTimeSeekMS served from the
// table: the rotational latency and transfer denominator for the
// level are cached, the seek and per-request transfer arithmetic
// keep the original evaluation order.
func (t *Table) ServiceTimeSeekMS(rpm int, bytes int64, seekMS float64) float64 {
	i := t.idx(rpm)
	if i < 0 {
		return t.P.ServiceTimeSeekMS(rpm, bytes, seekMS)
	}
	return t.ServiceTimeSeekIdx(i, bytes, seekMS)
}

// TransitionEnergyJ is Params.TransitionEnergyJ served from the
// precomputed pair table.
func (t *Table) TransitionEnergyJ(from, to int) float64 {
	i, j := t.idx(from), t.idx(to)
	if i < 0 || j < 0 {
		return t.P.TransitionEnergyJ(from, to)
	}
	return t.transPair[i*t.n+j]
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

// DipEnergyJ is Params.DipEnergyJ served from the table.
func (t *Table) DipEnergyJ(idleMS float64, rpm int) float64 {
	i := t.idx(rpm)
	if i < 0 {
		return t.P.DipEnergyJ(idleMS, rpm)
	}
	return t.dipByIndex(idleMS, i)
}

// BestRPMForIdle is Params.BestRPMForIdle served from the table. An
// idle length inside a segment of the breakpoint table gets the
// segment's level and that level's dipByIndex energy, the very
// expression the scan evaluates, so rpm and energy are the scan's to
// the bit. Any other length (near a breakpoint, outside the certified
// range, or not finite and positive: every comparison below is false
// for NaN) runs the scan.
func (t *Table) BestRPMForIdle(idleMS float64) (int, float64) {
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
	if t.n == 0 {
		return t.P.BestRPMForIdle(idleMS)
	}
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

// BestRPMForTrailingIdle is Params.BestRPMForTrailingIdle served from
// the table.
func (t *Table) BestRPMForTrailingIdle(idleMS float64) (int, float64) {
	if t.n == 0 {
		return t.P.BestRPMForTrailingIdle(idleMS)
	}
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
