package disk

import (
	"math"
	"sort"
)

// The best-RPM breakpoint table.
//
// For an idle length x, level i's dip energy lies on the line
// transJ2[i] + idleW[i]·(x − 2·down_i)/1e3, defined from
// x = down_i + down_i (before that the round trip does not fit and the
// energy is +Inf). Full speed is the line IdleW·x/1e3 from x = 0. The
// scan picks the lowest of these lines. Between two feasibility edges
// the set of feasible levels is fixed, so the winner changes only
// where two feasible lines cross. buildBest cuts the idle axis at 0,
// at every feasibility edge and at bestCapMS, runs the scan at the
// midpoint of each piece to learn its level, and keeps the piece only
// where certify proves that the scan picks that level at every idle
// length in it. A piece that holds a crossing fails certify, and the
// scan answers there. bestRPM answers inside a kept segment
// with one dipByIndex and runs the scan everywhere else.
//
// With the default model the feasibility edges 7, 14, …, 70 ms are
// the only points where the winner changes: the deepest level that
// fits wins, and all 11 pieces certify. Correctness assumes nothing
// of that shape; a model whose lines cross between two edges only
// loses the table's speed in the pieces that hold a crossing.

const (
	// bestMargin is the relative distance a segment keeps from each
	// breakpoint; idle lengths in between run the scan. A breakpoint
	// is a feasibility edge down+down, the very sum dipByIndex tests
	// against, and the idle lengths near it are where a level's
	// energy is its round-trip energy plus a stay that cancels to
	// nearly zero in idle − down − down. Each dip energy is computed
	// with five roundings (two subtractions, a product, a quotient and
	// a sum), so it lies within about five ulps, about 1e-15 relative,
	// of its exact line (dipErr). A margin of 1e-9 keeps every segment
	// end a million times that far from the edge, so no lookup inside
	// a segment rests on how an edge rounds. Where two energies are
	// still closer than their rounding error, certify rejects the
	// segment and the scan answers there.
	bestMargin = 1e-9
	// bestCapMS is the end of the table's range (about 32 years);
	// longer idle lengths run the scan. Past some length the energies
	// of nearly parallel lines differ by less than their rounding
	// error, and past a larger one they overflow; a finite range lets
	// certify check both ends of every segment.
	bestCapMS = 1e12
	// dipErrUlps bounds the rounding error of a dip energy in units
	// of 2⁻⁵³ times the magnitudes it adds up (see dipErr): the five
	// roundings contribute at most about 5.1 such units.
	dipErrUlps = 8
)

// buildBest builds the breakpoint table. It is O(n²): at most n+1
// pieces, each one scan and one certify of O(n).
func (t *Table) buildBest() []bestSeg {
	top := t.n - 1 // full speed: IdleEnergyJ, feasible from 0
	edge := make([]float64, top)
	bps := []float64{0, bestCapMS}
	for i := range edge {
		edge[i] = t.transMS[i] + t.transMS[i]
		if edge[i] > 0 && edge[i] < bestCapMS {
			bps = append(bps, edge[i])
		}
	}
	sort.Float64s(bps)

	var segs []bestSeg
	for k := 0; k+1 < len(bps); k++ {
		lo, hi := bps[k]*(1+bestMargin), bps[k+1]
		if k+2 < len(bps) {
			hi *= 1 - bestMargin
		}
		if !(lo < hi) {
			continue
		}
		rpm, _ := t.scanBest(lo + (hi-lo)/2)
		if lvl := t.ClampIndex(rpm); t.certify(lo, hi, lvl, edge) {
			segs = append(segs, bestSeg{lo: lo, hi: hi, lvl: lvl})
		}
	}
	return segs
}

// certify reports whether the scan picks level w at every idle length
// in [lo, hi]. It requires every other level c to be dearer than w by
// more than twice their rounding bounds at both ends of the range
// where c is feasible. The exact energies and the bounds are affine in
// the idle length, so the margin holds in between too, and the
// computed energies keep their order: c's is strictly above w's, and
// the scan's strict-less comparison picks w whatever their order.
func (t *Table) certify(lo, hi float64, w int, edge []float64) bool {
	top := t.n - 1
	if w < top && edge[w] > lo {
		return false
	}
	dearer := func(x float64, c int) bool {
		gap := t.dipByIndex(x, c) - t.dipByIndex(x, w)
		return gap > 2*(t.dipErr(x, c)+t.dipErr(x, w))
	}
	for c := 0; c < t.n; c++ {
		if c == w {
			continue
		}
		a := lo
		if c < top {
			if math.IsInf(t.transJ2[c], 1) {
				continue // +Inf wherever feasible: never picked
			}
			if edge[c] > hi {
				continue // infeasible, +Inf, throughout
			}
			a = math.Max(a, edge[c])
		}
		if !dearer(a, c) || !dearer(hi, c) {
			return false
		}
	}
	return true
}

// dipErr bounds |dipByIndex(x, i) − the exact value of its line| for
// x ≥ 0: dipErrUlps ulps of the magnitudes the expression adds up,
// plus a few subnormal units for results that underflow.
func (t *Table) dipErr(x float64, i int) float64 {
	mag := t.P.IdleW * x / 1e3
	if i < t.n-1 {
		mag = t.transJ2[i] + t.idleW[i]*(x+t.transMS[i]+t.transMS[i])/1e3
	}
	return dipErrUlps * (0x1p-53*mag + math.SmallestNonzeroFloat64)
}
