// Package access extracts the data access pattern of an IR program:
// the program-order sequence of stripe-unit touches each array
// reference makes. This is the compiler analysis the paper's
// proactive scheme is built on (Section 3): combined with the disk
// layout it yields the disk access pattern, and filtered through the
// buffer cache model it yields the I/O request stream.
//
// The walker never enumerates individual array elements: for each run
// of the innermost loop it computes the byte stride of every
// reference and jumps directly between stripe-unit boundaries. Nor
// does it compute a run that touches the same units as the run before
// it: it counts such repeats in closed form from where the run's
// offsets sit in their units. The cost is proportional to the unit
// touches of the runs that differ from the run before them, plus the
// number of those runs.
package access

import (
	"fmt"
	"math"
	"slices"

	"sdpm/internal/ir"
	"sdpm/internal/layout"
)

// Touch is one stripe-unit touch: the first innermost iteration at
// which a reference enters a given stripe unit of its array's file.
type Touch struct {
	// Nest is the nest index within the program.
	Nest int
	// Iter is the linearized iteration (program execution order
	// within the nest) at which the unit is first entered.
	Iter int64
	// Array is the array's index in the program's Arrays (an array
	// the program does not list is numbered after them, by name).
	Array int
	// File is the array (file) name; Unit the stripe unit index.
	File string
	Unit int64
	// Bytes is the size of the unit (truncated at end of file).
	Bytes int64
	// Kind is the reference kind causing the touch.
	Kind ir.RefKind
}

// Run is one run of a nest's innermost loop: the stripe-unit touches
// it makes, and how many of the runs after it make the same ones.
type Run struct {
	// Touches are the run's touches in program order. The walk reuses
	// the slice for its next run, so fn must not keep it.
	Touches []Touch
	// Repeats is the number of following runs that repeat this one.
	// The r-th of them (1 <= r <= Repeats) makes Touches with every
	// Iter advanced by r*IterStep.
	Repeats int64
	// IterStep is the distance in linearized iterations between
	// consecutive runs: the innermost loop's trip count.
	IterStep int64
}

// Walk passes the program's innermost runs to fn in program order. It
// stops early if fn returns an error. Program order is: nests in
// sequence; iterations in lexicographic order; within an iteration,
// statements then references in declaration order.
//
// A run repeats the run before it when every reference touches the
// same stripe units at the same innermost iterations. Walk does not
// pass a repeat to fn: the run that starts a sequence of repeats
// counts them in Run.Repeats, and the walk goes on after the last of
// them. The count is exact for references to linearly laid-out
// arrays, never spans a step of an outer loop other than the
// next-to-innermost one, and is 0 for a run that touches a blocked
// array. A repeat lies inside its file, so an out-of-bounds run is
// always computed and fails with the same error after the same
// touches.
func Walk(p *ir.Program, sub *layout.Subsystem, fn func(Run) error) error {
	w := walker{sub: sub, numArrays: len(p.Arrays), ids: make(map[string]int, len(p.Arrays)), fn: fn}
	for i, a := range p.Arrays {
		if _, dup := w.ids[a.Name]; !dup {
			w.ids[a.Name] = i
		}
	}
	for ni, nest := range p.Nests {
		if err := w.walkNest(ni, nest); err != nil {
			return err
		}
	}
	return nil
}

// walker is what one Walk carries from nest to nest.
type walker struct {
	sub       *layout.Subsystem
	numArrays int
	ids       map[string]int // Touch.Array by array name
	fn        func(Run) error
	// pending and run are the buffers every run of the walk reuses.
	pending []pendingTouch
	run     Run
}

// refPlan is the per-reference precomputation for one nest.
type refPlan struct {
	ref       *ir.Ref
	stmtIdx   int
	refIdx    int
	strideB   int64 // byte stride per innermost iteration (linear layouts)
	unitBytes int64
	fileSize  int64
	file      string
	array     int // Touch.Array
	// Linear layouts: the byte offset at iteration vector iv is
	// constB plus the sum of loopB[l]*iv[l]; rowB is the offset's
	// change from one run to the next within a row (one step of the
	// next-to-innermost loop).
	constB int64
	loopB  []int64
	rowB   int64
	// Blocked-layout handling: when the referenced array has a
	// blocked (tiled) layout, runs are only piecewise linear.
	blocked bool
	// drivenDim is the single array dimension the innermost loop
	// variable drives (-1 when it drives none or several).
	drivenDim int
	// coefStep is the per-innermost-iteration change of the driven
	// dimension's index (coefficient times loop step).
	coefStep int64
	// withinStride is the byte stride of one step of the driven
	// dimension inside a tile.
	withinStride int64
}

type pendingTouch struct {
	k       int64 // innermost iteration offset within the run
	stmtIdx int
	refIdx  int
	unit    int64
	plan    *refPlan
}

func (w *walker) walkNest(ni int, nest *ir.Nest) error {
	depth := nest.Depth()
	inner := nest.Loops[depth-1]
	innerTrip := inner.Trip()
	if innerTrip == 0 || nest.Trips() == 0 {
		return nil
	}
	outerTrips := nest.Trips() / innerTrip

	// Precompute per-reference stride in bytes per innermost step.
	var plans []refPlan
	for si, s := range nest.Stmts {
		for ri := range s.Refs {
			r := &s.Refs[ri]
			st, ok := w.sub.StripingOf(r.Array.Name)
			if !ok {
				return fmt.Errorf("access: array %q not placed on subsystem", r.Array.Name)
			}
			size, _ := w.sub.SizeOf(r.Array.Name)
			id, ok := w.ids[r.Array.Name]
			if !ok {
				id = w.numArrays + len(w.ids)
				w.ids[r.Array.Name] = id
			}
			pl := refPlan{
				ref: r, stmtIdx: si, refIdx: ri,
				unitBytes: st.UnitBytes,
				fileSize:  size, file: r.Array.Name, array: id,
				drivenDim: -1,
			}
			driven := 0
			for dim, e := range r.Index {
				if c := e.CoeffAt(depth - 1); c != 0 {
					driven++
					pl.drivenDim = dim
					pl.coefStep = c * inner.Step
				}
			}
			if driven != 1 {
				pl.drivenDim = -1
			}
			if r.Array.Block != nil {
				pl.blocked = true
				if pl.drivenDim >= 0 {
					pl.withinStride = withinTileStride(r.Array, pl.drivenDim)
				}
			} else {
				pl.loopB = make([]int64, depth)
				for dim, e := range r.Index {
					dimB := r.Array.InnerStride(dim)
					pl.constB += e.Const * dimB
					for l := range pl.loopB {
						pl.loopB[l] += e.CoeffAt(l) * dimB
					}
				}
				pl.strideB = pl.loopB[depth-1] * inner.Step
				if depth > 1 {
					pl.rowB = pl.loopB[depth-2] * nest.Loops[depth-2].Step
				}
			}
			plans = append(plans, pl)
		}
	}

	// iv is the iteration vector at the start of the current
	// innermost run; last holds each loop's final index value.
	iv := make([]int64, depth)
	last := make([]int64, depth)
	for l, lp := range nest.Loops {
		iv[l] = lp.Lo
		last[l] = lp.Lo + (lp.Trip()-1)*lp.Step
	}
	// scratch is the blocked walker's private iteration vector; it is
	// allocated once per nest and overwritten per (run, reference)
	// rather than copied afresh, keeping the outer loop allocation-free.
	scratch := make([]int64, depth)
	touches := &w.pending
	run := &w.run
	run.IterStep = innerTrip
	for outer := int64(0); outer < outerTrips; outer += 1 + run.Repeats {
		if outer > 0 {
			// Step the outer loops past the last repeat to the next
			// run, like an odometer.
			if run.Repeats > 0 {
				iv[depth-2] += run.Repeats * nest.Loops[depth-2].Step
			}
			for l := depth - 2; l >= 0; l-- {
				if iv[l] != last[l] {
					iv[l] += nest.Loops[l].Step
					break
				}
				iv[l] = nest.Loops[l].Lo
			}
		}
		baseIter := outer * innerTrip
		*touches = (*touches)[:0]
		// No repeat crosses the end of the row.
		run.Repeats = 0
		if depth > 1 {
			run.Repeats = (last[depth-2] - iv[depth-2]) / nest.Loops[depth-2].Step
		}

		for pi := range plans {
			pl := &plans[pi]
			var err error
			if pl.blocked {
				err = collectRunTouchesBlocked(pl, iv, scratch, inner, innerTrip, touches)
				run.Repeats = 0
			} else {
				base := pl.constB
				for l, b := range pl.loopB {
					base += b * iv[l]
				}
				var reps int64
				reps, err = collectRunTouches(pl, base, innerTrip, touches)
				run.Repeats = min(run.Repeats, reps)
			}
			if err != nil {
				return fmt.Errorf("access: nest %d (%q) stmt %d ref %d: %w",
					ni, nest.Label, pl.stmtIdx, pl.refIdx, err)
			}
		}
		// Program order within the run: by iteration, then statement,
		// then reference. Keys are unique per touch, so the (unstable)
		// sort is deterministic; SortFunc avoids sort.Slice's
		// per-call closure and reflection-based swapper.
		slices.SortFunc(*touches, func(a, b pendingTouch) int {
			if a.k != b.k {
				if a.k < b.k {
					return -1
				}
				return 1
			}
			if a.stmtIdx != b.stmtIdx {
				return a.stmtIdx - b.stmtIdx
			}
			return a.refIdx - b.refIdx
		})
		run.Touches = run.Touches[:0]
		for _, tc := range *touches {
			unitStart := tc.unit * tc.plan.unitBytes
			b := tc.plan.unitBytes
			if unitStart+b > tc.plan.fileSize {
				b = tc.plan.fileSize - unitStart
			}
			run.Touches = append(run.Touches, Touch{
				Nest: ni, Iter: baseIter + tc.k, Array: tc.plan.array,
				File: tc.plan.file, Unit: tc.unit, Bytes: b,
				Kind: tc.plan.ref.Kind,
			})
		}
		if err := w.fn(*run); err != nil {
			return err
		}
	}
	return nil
}

// collectRunTouches appends the unit touches one reference makes over
// one innermost run starting at byte offset base, and returns how many
// of the following runs of the row make the same touches.
func collectRunTouches(pl *refPlan, base, innerTrip int64, out *[]pendingTouch) (int64, error) {
	checkOff := func(off int64) error {
		if off < 0 || off >= pl.fileSize {
			return fmt.Errorf("offset %d outside file %q of size %d", off, pl.file, pl.fileSize)
		}
		return nil
	}
	if err := checkOff(base); err != nil {
		return 0, err
	}
	if pl.strideB == 0 {
		*out = append(*out, pendingTouch{k: 0, stmtIdx: pl.stmtIdx, refIdx: pl.refIdx, unit: base / pl.unitBytes, plan: pl})
		return pl.repeats(base%pl.unitBytes, base%pl.unitBytes, base), nil
	}
	// Check the last offset too, so the whole run is known in bounds
	// (offsets are monotonic in k for affine references).
	lastOff := base + (innerTrip-1)*pl.strideB
	if err := checkOff(lastOff); err != nil {
		return 0, err
	}
	// lo and hi bound the offsets' positions within their units; each
	// unit's first and last offsets are its extremes.
	lo, hi := pl.unitBytes, int64(-1)
	k := int64(0)
	off := base
	for k < innerTrip {
		unit := off / pl.unitBytes
		*out = append(*out, pendingTouch{k: k, stmtIdx: pl.stmtIdx, refIdx: pl.refIdx, unit: unit, plan: pl})
		var dk int64
		if pl.strideB > 0 {
			next := (unit + 1) * pl.unitBytes
			dk = (next - off + pl.strideB - 1) / pl.strideB
		} else {
			// Exit downward when off < unit*unitBytes.
			prev := unit*pl.unitBytes - 1
			neg := -pl.strideB
			dk = (off - prev + neg - 1) / neg
		}
		first := off - unit*pl.unitBytes
		final := first + (min(dk, innerTrip-k)-1)*pl.strideB
		lo, hi = min(lo, first, final), max(hi, first, final)
		k += dk
		off += dk * pl.strideB
	}
	return pl.repeats(lo, hi, max(base, lastOff)), nil
}

// repeats returns how many following runs of a row repeat the
// reference's touches in a run whose offsets sit at lo through hi
// within their units and reach maxOff: each step of the row moves
// every offset by rowB, and the touches stay the same while no offset
// leaves its unit or the file.
func (pl *refPlan) repeats(lo, hi, maxOff int64) int64 {
	switch d := pl.rowB; {
	case d > 0:
		return min((pl.unitBytes-1-hi)/d, (pl.fileSize-1-maxOff)/d)
	case d < 0:
		return lo / -d
	default:
		return math.MaxInt64
	}
}

// withinTileStride returns the byte stride of one step of the given
// dimension inside a tile of a blocked array.
func withinTileStride(a *ir.Array, dim int) int64 {
	stride := a.ElemSize
	if a.RowMajor {
		for d := len(a.Block) - 1; d > dim; d-- {
			stride *= a.Block[d]
		}
	} else {
		for d := 0; d < dim; d++ {
			stride *= a.Block[d]
		}
	}
	return stride
}

// collectRunTouchesBlocked appends the unit touches of one reference
// to a blocked-layout array over one innermost run. Within a run the
// offset sequence is only piecewise linear: it jumps at every tile
// boundary of the driven dimension, so the walk proceeds segment by
// segment, with linear unit-boundary jumping inside each segment.
// scratch must have len(ivRun) elements; it is overwritten (the
// caller's ivRun stays untouched for the nest's remaining references).
func collectRunTouchesBlocked(pl *refPlan, ivRun, scratch []int64, inner ir.Loop, innerTrip int64, out *[]pendingTouch) error {
	iv := scratch
	copy(iv, ivRun)
	innerDepth := len(iv) - 1
	lastUnit := int64(-1)
	emit := func(k, off int64) {
		unit := off / pl.unitBytes
		if unit != lastUnit {
			lastUnit = unit
			*out = append(*out, pendingTouch{k: k, stmtIdx: pl.stmtIdx, refIdx: pl.refIdx, unit: unit, plan: pl})
		}
	}
	checkOff := func(off int64) error {
		if off < 0 || off >= pl.fileSize {
			return fmt.Errorf("offset %d outside file %q of size %d", off, pl.file, pl.fileSize)
		}
		return nil
	}
	if pl.drivenDim < 0 {
		// The innermost variable drives zero or several dimensions:
		// walk element by element (correct for any pattern).
		for k := int64(0); k < innerTrip; k++ {
			iv[innerDepth] = inner.Lo + k*inner.Step
			off := pl.ref.OffsetAt(iv)
			if err := checkOff(off); err != nil {
				return err
			}
			emit(k, off)
		}
		return nil
	}
	blockExt := pl.ref.Array.Block[pl.drivenDim]
	iv[innerDepth] = inner.Lo
	idx0 := pl.ref.Index[pl.drivenDim].Eval(iv)
	stride := pl.coefStep * pl.withinStride
	for k := int64(0); k < innerTrip; {
		iv[innerDepth] = inner.Lo + k*inner.Step
		segOff := pl.ref.OffsetAt(iv)
		if err := checkOff(segOff); err != nil {
			return err
		}
		idx := idx0 + pl.coefStep*k
		// Steps until the driven index leaves its current tile.
		var segLen int64
		if pl.coefStep > 0 {
			segLen = (blockExt - idx%blockExt + pl.coefStep - 1) / pl.coefStep
		} else {
			neg := -pl.coefStep
			segLen = (idx%blockExt + neg) / neg
		}
		if k+segLen > innerTrip {
			segLen = innerTrip - k
		}
		// Within the segment the offset advances linearly; jump
		// between stripe-unit boundaries as in the linear walker.
		off := segOff
		for kk := int64(0); kk < segLen; {
			emit(k+kk, off)
			if stride == 0 {
				break
			}
			unit := off / pl.unitBytes
			var dk int64
			if stride > 0 {
				next := (unit + 1) * pl.unitBytes
				dk = (next - off + stride - 1) / stride
			} else {
				prev := unit*pl.unitBytes - 1
				neg := -stride
				dk = (off - prev + neg - 1) / neg
			}
			kk += dk
			off += dk * stride
		}
		k += segLen
	}
	return nil
}

// PlaceArrays places every array of the program on the subsystem
// with the given default striping (each array in its own file). It
// is a convenience used when no transformation has assigned custom
// layouts.
func PlaceArrays(p *ir.Program, sub *layout.Subsystem, st layout.Striping) error {
	for _, a := range p.Arrays {
		if err := sub.Place(a.Name, a.SizeBytes(), st); err != nil {
			return err
		}
	}
	return nil
}

// PlaceArraysStaggered places every array with the given stripe
// factor and unit but staggers the starting disks (array i starts at
// disk i mod the subsystem size), the usual load-balancing placement.
// This avoids the degenerate alignment where unit k of every file
// lands on the same disk. An array named in overrides takes that
// striping instead (a layout-aware transformation's choice).
func PlaceArraysStaggered(p *ir.Program, sub *layout.Subsystem, factor int, unitBytes int64, overrides map[string]layout.Striping) error {
	nd := sub.NumDisks()
	for i, a := range p.Arrays {
		st := layout.Striping{StartDisk: i % nd, Factor: factor, UnitBytes: unitBytes}
		if o, ok := overrides[a.Name]; ok {
			st = o
		}
		if err := sub.Place(a.Name, a.SizeBytes(), st); err != nil {
			return err
		}
	}
	return nil
}
