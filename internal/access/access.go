// Package access extracts the data access pattern of an IR program:
// the program-order sequence of stripe-unit touches each array
// reference makes. This is the compiler analysis the paper's
// proactive scheme is built on (Section 3): combined with the disk
// layout it yields the disk access pattern, and filtered through the
// buffer cache model it yields the I/O request stream.
//
// The walker never enumerates individual array elements: for each run
// of the innermost loop it computes the byte stride of every
// reference and jumps directly between stripe-unit boundaries, so the
// cost is proportional to the number of unit touches plus the number
// of outer-loop iterations.
package access

import (
	"fmt"
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

// Walk enumerates all stripe-unit touches of the program in program
// order and passes each to fn. It stops early if fn returns an
// error. Program order is: nests in sequence; iterations in
// lexicographic order; within an iteration, statements then
// references in declaration order.
func Walk(p *ir.Program, sub *layout.Subsystem, fn func(Touch) error) error {
	ids := make(map[string]int, len(p.Arrays))
	for i, a := range p.Arrays {
		if _, dup := ids[a.Name]; !dup {
			ids[a.Name] = i
		}
	}
	for ni, nest := range p.Nests {
		if err := walkNest(ni, nest, sub, len(p.Arrays), ids, fn); err != nil {
			return err
		}
	}
	return nil
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
	// constB plus the sum of loopB[l]*iv[l].
	constB int64
	loopB  []int64
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

func walkNest(ni int, nest *ir.Nest, sub *layout.Subsystem, numArrays int, ids map[string]int, fn func(Touch) error) error {
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
			st, ok := sub.StripingOf(r.Array.Name)
			if !ok {
				return fmt.Errorf("access: array %q not placed on subsystem", r.Array.Name)
			}
			size, _ := sub.SizeOf(r.Array.Name)
			id, ok := ids[r.Array.Name]
			if !ok {
				id = numArrays + len(ids)
				ids[r.Array.Name] = id
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
	var touches []pendingTouch
	for outer := int64(0); outer < outerTrips; outer++ {
		if outer > 0 {
			// Step the outer loops to the next run, like an odometer.
			for l := depth - 2; l >= 0; l-- {
				if iv[l] != last[l] {
					iv[l] += nest.Loops[l].Step
					break
				}
				iv[l] = nest.Loops[l].Lo
			}
		}
		baseIter := outer * innerTrip
		touches = touches[:0]

		for pi := range plans {
			pl := &plans[pi]
			var err error
			if pl.blocked {
				err = collectRunTouchesBlocked(pl, iv, scratch, inner, innerTrip, &touches)
			} else {
				base := pl.constB
				for l, b := range pl.loopB {
					base += b * iv[l]
				}
				err = collectRunTouches(pl, base, innerTrip, &touches)
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
		slices.SortFunc(touches, func(a, b pendingTouch) int {
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
		for _, tc := range touches {
			unitStart := tc.unit * tc.plan.unitBytes
			b := tc.plan.unitBytes
			if unitStart+b > tc.plan.fileSize {
				b = tc.plan.fileSize - unitStart
			}
			if err := fn(Touch{
				Nest: ni, Iter: baseIter + tc.k, Array: tc.plan.array,
				File: tc.plan.file, Unit: tc.unit, Bytes: b,
				Kind: tc.plan.ref.Kind,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// collectRunTouches appends the unit touches one reference makes over
// one innermost run starting at byte offset base.
func collectRunTouches(pl *refPlan, base, innerTrip int64, out *[]pendingTouch) error {
	checkOff := func(off int64) error {
		if off < 0 || off >= pl.fileSize {
			return fmt.Errorf("offset %d outside file %q of size %d", off, pl.file, pl.fileSize)
		}
		return nil
	}
	if err := checkOff(base); err != nil {
		return err
	}
	if pl.strideB == 0 {
		*out = append(*out, pendingTouch{k: 0, stmtIdx: pl.stmtIdx, refIdx: pl.refIdx, unit: base / pl.unitBytes, plan: pl})
		return nil
	}
	// Check the last offset too, so the whole run is known in bounds
	// (offsets are monotonic in k for affine references).
	if err := checkOff(base + (innerTrip-1)*pl.strideB); err != nil {
		return err
	}
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
		k += dk
		off += dk * pl.strideB
	}
	return nil
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
