package access

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sdpm/internal/ir"
	"sdpm/internal/layout"
	"sdpm/internal/workloads"
)

// Touches collects the full touch sequence of a (small) program,
// expanding every repeat of every run.
func Touches(p *ir.Program, sub *layout.Subsystem) ([]Touch, error) {
	out, _, err := walkRuns(p, sub)
	return out, err
}

// walkRuns is Touches that also returns the runs Walk passed to fn.
// It fails a walk that passes or counts more runs than the program
// makes, or a negative repeat count, before expanding them, so a
// miscounted repeat cannot exhaust memory.
func walkRuns(p *ir.Program, sub *layout.Subsystem) ([]Touch, []Run, error) {
	var left int64
	for _, n := range p.Nests {
		if trip := n.Loops[n.Depth()-1].Trip(); trip > 0 {
			left += n.Trips() / trip
		}
	}
	var out []Touch
	var runs []Run
	err := Walk(p, sub, func(run Run) error {
		if left -= 1 + run.Repeats; left < 0 || run.Repeats < 0 {
			return fmt.Errorf("run repeats %d times, %d runs left", run.Repeats, left)
		}
		for r := int64(0); r <= run.Repeats; r++ {
			for _, t := range run.Touches {
				t.Iter += r * run.IterStep
				out = append(out, t)
			}
		}
		run.Touches = slices.Clone(run.Touches)
		runs = append(runs, run)
		return nil
	})
	return out, runs, err
}

// bruteTouches is a reference implementation that visits every
// iteration and every reference, emitting a touch whenever a
// reference enters a different stripe unit within an innermost run.
func bruteTouches(t *testing.T, p *ir.Program, sub *layout.Subsystem) []Touch {
	t.Helper()
	var out []Touch
	for ni, nest := range p.Nests {
		depth := nest.Depth()
		innerTrip := nest.Loops[depth-1].Trip()
		trips := nest.Trips()
		type key struct{ si, ri int }
		last := make(map[key]int64)
		for it := int64(0); it < trips; it++ {
			if it%innerTrip == 0 {
				last = make(map[key]int64) // new innermost run
			}
			iv := nest.IndexOf(it)
			for si, s := range nest.Stmts {
				for ri := range s.Refs {
					r := &s.Refs[ri]
					off := r.OffsetAt(iv)
					st, _ := sub.StripingOf(r.Array.Name)
					size, _ := sub.SizeOf(r.Array.Name)
					unit := off / st.UnitBytes
					k := key{si, ri}
					if prev, seen := last[k]; !seen || prev != unit {
						last[k] = unit
						b := st.UnitBytes
						if unit*st.UnitBytes+b > size {
							b = size - unit*st.UnitBytes
						}
						array := slices.IndexFunc(p.Arrays, func(a *ir.Array) bool { return a.Name == r.Array.Name })
						out = append(out, Touch{Nest: ni, Iter: it, Array: array, File: r.Array.Name, Unit: unit, Bytes: b, Kind: r.Kind})
					}
				}
			}
		}
	}
	return out
}

func placeAll(t *testing.T, p *ir.Program, nd int, unit int64, factor int) *layout.Subsystem {
	t.Helper()
	sub := layout.MustSubsystem(nd)
	if err := PlaceArrays(p, sub, layout.Striping{StartDisk: 0, Factor: factor, UnitBytes: unit}); err != nil {
		t.Fatal(err)
	}
	return sub
}

func TestWalkSequential1D(t *testing.T) {
	b := ir.NewBuilder("p")
	u := b.Array1D("u", 1024) // 8KB
	b.Nest("n0", ir.L("i", 1024)).Stmt(10, ir.R(u, ir.Var(0)))
	p := b.MustBuild()
	sub := placeAll(t, p, 4, 1024, 4) // 1KB units -> 8 units

	got, err := Touches(p, sub)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("got %d touches, want 8: %v", len(got), got)
	}
	for i, tc := range got {
		if tc.Unit != int64(i) || tc.Iter != int64(i*128) || tc.Bytes != 1024 {
			t.Errorf("touch %d = %+v", i, tc)
		}
	}
}

func TestWalkMatchesBruteForce2D(t *testing.T) {
	b := ir.NewBuilder("p")
	u := b.Array2D("u", 16, 32)
	v := b.Array2D("v", 16, 32)
	b.Nest("n0", ir.L("i", 16), ir.L("j", 32)).
		Stmt(10, ir.R(u, ir.Var(0), ir.Var(1)), ir.W(v, ir.Var(0), ir.Var(1)))
	p := b.MustBuild()
	sub := placeAll(t, p, 4, 512, 4)

	got, err := Touches(p, sub)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteTouches(t, p, sub)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fast walker diverged:\n got %v\nwant %v", got, want)
	}
}

func TestWalkMatchesBruteForceColumnAccess(t *testing.T) {
	// Column-major access of a row-major array: stride = row length.
	b := ir.NewBuilder("p")
	u := b.Array2D("u", 32, 16)
	b.Nest("n0", ir.L("j", 16), ir.L("i", 32)).
		Stmt(10, ir.R(u, ir.Var(1), ir.Var(0))) // u[i][j] with i innermost
	p := b.MustBuild()
	sub := placeAll(t, p, 2, 512, 2)

	got, err := Touches(p, sub)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteTouches(t, p, sub)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("column access diverged:\n got %v\nwant %v", got, want)
	}
}

func TestWalkMatchesBruteForceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		b := ir.NewBuilder("p")
		d0 := int64(4 + rng.Intn(12))
		d1 := int64(4 + rng.Intn(20))
		u := b.Array2D("u", d0, d1)
		v := b.Array1D("v", d0*d1)
		if rng.Intn(2) == 0 {
			u.RowMajor = false
		}
		// Random affine subscripts that stay in bounds.
		c0 := int64(rng.Intn(2))
		c1 := int64(1 - c0)
		nb := b.Nest("n0", ir.L("i", d0), ir.L("j", d1))
		nb.Stmt(5,
			ir.R(u, ir.Var(0).Times(c0).Add(ir.Var(0).Times(1-c0)), ir.Var(1)),
			ir.W(v, ir.Var(0).Times(c1).Add(ir.Var(1).Times(1+c0))))
		_ = u
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		unit := int64(512 * (1 + rng.Intn(3)))
		factor := 1 + rng.Intn(3)
		sub := placeAll(t, p, 4, unit, factor)
		got, err := Touches(p, sub)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := bruteTouches(t, p, sub)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d diverged (unit=%d factor=%d)", trial, unit, factor)
		}
	}
}

func TestWalkOuterLoopsOffsetAndStrided(t *testing.T) {
	// Outer loops that start off zero and step by more than one: the
	// walker steps them in place and derives each run's start offset
	// from per-loop byte strides, which generated programs (all loops
	// from zero) never exercise. The blocked array takes the walker's
	// other path from the same iteration vector.
	b := ir.NewBuilder("p")
	u := b.Array3D("u", 12, 10, 16)
	v := b.Array2D("v", 48, 48)
	v.RowMajor = false
	w := b.Array2D("w", 16, 24)
	w.Block = []int64{4, 8}
	b.Nest("n0", ir.LRange("i", 3, 12, 4), ir.LRange("j", 1, 10, 3), ir.LRange("k", 2, 16, 3)).
		Stmt(7,
			ir.R(u, ir.Var(0), ir.Var(1), ir.Var(2)),
			ir.W(v, ir.Var(0).Times(3).Add(ir.Var(1)).Plus(1), ir.Var(2).Times(2).Add(ir.Var(1))),
			ir.R(w, ir.Var(2), ir.Var(0).Add(ir.Var(1))))
	b.Nest("n1", ir.LRange("i", 2, 9, 2), ir.LRange("j", 5, 16, 5)).
		Stmt(3, ir.R(u, ir.Var(0), ir.Cnst(4), ir.Var(1)), ir.R(w, ir.Var(1), ir.Var(0)))
	p := b.MustBuild()
	sub := placeAll(t, p, 3, 512, 3)
	got, err := Touches(p, sub)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteTouches(t, p, sub)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("offset/strided outer loops diverged:\n got %v\nwant %v", got, want)
	}
}

func TestWalkStrideZero(t *testing.T) {
	// Reference not depending on the innermost variable touches its
	// unit once per run.
	b := ir.NewBuilder("p")
	u := b.Array2D("u", 8, 8)
	w := b.Array1D("w", 8)
	b.Nest("n0", ir.L("i", 8), ir.L("j", 8)).
		Stmt(1, ir.R(u, ir.Var(0), ir.Var(1)), ir.R(w, ir.Var(0)))
	p := b.MustBuild()
	sub := placeAll(t, p, 2, 512, 2)
	got, err := Touches(p, sub)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteTouches(t, p, sub)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stride-0 diverged:\n got %v\nwant %v", got, want)
	}
	// w is 64 bytes: one unit; touched at the start of each of 8 runs.
	var wTouches int
	for _, tc := range got {
		if tc.File == "w" {
			wTouches++
			if tc.Bytes != 64 {
				t.Errorf("w touch bytes = %d, want 64 (truncated)", tc.Bytes)
			}
		}
	}
	if wTouches != 8 {
		t.Errorf("w touched %d times, want 8", wTouches)
	}
}

func TestWalkNegativeStride(t *testing.T) {
	// Reverse traversal: u[N-1-j].
	b := ir.NewBuilder("p")
	u := b.Array1D("u", 512)
	b.Nest("n0", ir.L("j", 512)).
		Stmt(1, ir.R(u, ir.Var(0).Times(-1).Plus(511)))
	p := b.MustBuild()
	sub := placeAll(t, p, 2, 512, 2)
	got, err := Touches(p, sub)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteTouches(t, p, sub)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("negative stride diverged:\n got %v\nwant %v", got, want)
	}
	// Units must be visited in descending order.
	for i := 1; i < len(got); i++ {
		if got[i].Unit >= got[i-1].Unit {
			t.Fatalf("units not descending: %v", got)
		}
	}
}

func TestWalkMultipleNests(t *testing.T) {
	b := ir.NewBuilder("p")
	u := b.Array1D("u", 256)
	v := b.Array1D("v", 256)
	b.Nest("n0", ir.L("i", 256)).Stmt(1, ir.R(u, ir.Var(0)))
	b.Nest("n1", ir.L("i", 256)).Stmt(1, ir.W(v, ir.Var(0)))
	p := b.MustBuild()
	sub := placeAll(t, p, 2, 512, 2)
	got, err := Touches(p, sub)
	if err != nil {
		t.Fatal(err)
	}
	// 2KB arrays, 512B units -> 4 touches each.
	if len(got) != 8 {
		t.Fatalf("touches = %d", len(got))
	}
	for i, tc := range got {
		wantNest := 0
		if i >= 4 {
			wantNest = 1
		}
		if tc.Nest != wantNest {
			t.Errorf("touch %d nest = %d", i, tc.Nest)
		}
	}
	if got[0].Kind != ir.Read || got[4].Kind != ir.Write {
		t.Error("kinds wrong")
	}
}

func TestWalkOutOfBounds(t *testing.T) {
	b := ir.NewBuilder("p")
	u := b.Array1D("u", 16)
	b.Nest("n0", ir.L("i", 32)).Stmt(1, ir.R(u, ir.Var(0))) // i up to 31 > 15
	p := b.MustBuild()
	sub := placeAll(t, p, 2, 512, 1)
	if _, err := Touches(p, sub); err == nil {
		t.Fatal("out-of-bounds access accepted")
	}
}

func TestWalkUnplacedArray(t *testing.T) {
	b := ir.NewBuilder("p")
	u := b.Array1D("u", 16)
	b.Nest("n0", ir.L("i", 16)).Stmt(1, ir.R(u, ir.Var(0)))
	p := b.MustBuild()
	sub := layout.MustSubsystem(2)
	if _, err := Touches(p, sub); err == nil {
		t.Fatal("unplaced array accepted")
	}
}

func TestWalkEarlyStop(t *testing.T) {
	// Every row of u is a stripe unit of its own, so no run repeats
	// another and the walk passes all 8 runs unless fn stops it.
	b := ir.NewBuilder("p")
	u := b.Array2D("u", 8, 64)
	b.Nest("n0", ir.L("i", 8), ir.L("j", 64)).Stmt(1, ir.R(u, ir.Var(0), ir.Var(1)))
	p := b.MustBuild()
	sub := placeAll(t, p, 2, 512, 2)
	count := 0
	sentinel := errSentinel{}
	err := Walk(p, sub, func(run Run) error {
		count++
		if run.Repeats != 0 {
			t.Errorf("run %d repeats %d times, want 0", count, run.Repeats)
		}
		if count == 2 {
			return sentinel
		}
		return nil
	})
	if err != sentinel || count != 2 {
		t.Fatalf("early stop failed: err=%v count=%d", err, count)
	}
}

type errSentinel struct{}

func (errSentinel) Error() string { return "stop" }

func TestWalkEmptyLoop(t *testing.T) {
	b := ir.NewBuilder("p")
	u := b.Array1D("u", 16)
	b.Nest("n0", ir.LRange("i", 5, 5, 1)).Stmt(1, ir.R(u, ir.Var(0)))
	p := b.MustBuild()
	sub := placeAll(t, p, 2, 512, 1)
	got, err := Touches(p, sub)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty loop produced touches: %v", got)
	}
}

func TestWalkBlockedLayoutMatchesBruteForce(t *testing.T) {
	// Tiled (4-deep) nest over a blocked array: the canonical TL+DL
	// shape where one iteration tile equals one stored tile.
	b := ir.NewBuilder("p")
	u := b.Array2D("u", 32, 32)
	u.Block = []int64{8, 8}
	// loops: ii, jj, ti, tj ; ref u[ii*8+ti][jj*8+tj].
	b.Nest("n0", ir.L("ii", 4), ir.L("jj", 4), ir.L("ti", 8), ir.L("tj", 8)).
		Stmt(1, ir.R(u,
			ir.Var(0).Times(8).Add(ir.Var(2)),
			ir.Var(1).Times(8).Add(ir.Var(3))))
	p := b.MustBuild()
	sub := placeAll(t, p, 4, 8*8*8, 4) // unit = one tile (512B)
	got, err := Touches(p, sub)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteTouches(t, p, sub)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("blocked tiled diverged:\n got %v\nwant %v", got, want)
	}
	// One touch per innermost run (each run stays inside one tile),
	// covering exactly the 16 distinct tiles; the buffer cache later
	// collapses same-tile touches into one request per tile.
	if len(got) != 128 {
		t.Errorf("touches = %d, want 128", len(got))
	}
	units := make(map[int64]bool)
	for _, tc := range got {
		units[tc.Unit] = true
	}
	if len(units) != 16 {
		t.Errorf("distinct units = %d, want 16", len(units))
	}
	// Touches arrive tile by tile: unit changes exactly 15 times.
	changes := 0
	for i := 1; i < len(got); i++ {
		if got[i].Unit != got[i-1].Unit {
			changes++
		}
	}
	if changes != 15 {
		t.Errorf("unit changes = %d, want 15 (tile-by-tile order)", changes)
	}
}

func TestWalkBlockedUntiledNestMatchesBruteForce(t *testing.T) {
	// An untiled row sweep over a blocked array: runs cross tile
	// boundaries, exercising the piecewise-segment walker.
	b := ir.NewBuilder("p")
	u := b.Array2D("u", 8, 16)
	u.Block = []int64{2, 4}
	b.Nest("n0", ir.L("i", 8), ir.L("j", 16)).
		Stmt(1, ir.R(u, ir.Var(0), ir.Var(1)))
	p := b.MustBuild()
	sub := placeAll(t, p, 2, 512, 2)
	got, err := Touches(p, sub)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteTouches(t, p, sub)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("blocked untiled diverged:\n got %v\nwant %v", got, want)
	}
}

func TestWalkBlockedColMajorAndNegativeStride(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		b := ir.NewBuilder("p")
		u := b.Array2D("u", 8, 12)
		u.Block = []int64{4, 4}
		if rng.Intn(2) == 0 {
			u.RowMajor = false
		}
		var refs []ir.Ref
		if rng.Intn(2) == 0 {
			refs = append(refs, ir.R(u, ir.Var(0), ir.Var(1).Times(-1).Plus(11))) // reverse j
		} else {
			refs = append(refs, ir.R(u, ir.Var(1).Times(0).Add(ir.Var(0)), ir.Var(1)))
		}
		b.Nest("n0", ir.L("i", 8), ir.L("j", 12)).Stmt(1, refs...)
		p := b.MustBuild()
		unit := int64(512 * (1 + rng.Intn(2)))
		sub := placeAll(t, p, 2, unit, 2)
		got, err := Touches(p, sub)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteTouches(t, p, sub)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d diverged (rowMajor=%v)", trial, u.RowMajor)
		}
	}
}

func TestWalkBlockedMultiDrivenFallsBack(t *testing.T) {
	// Innermost variable drives both dimensions: diagonal access,
	// forcing the per-element fallback.
	b := ir.NewBuilder("p")
	u := b.Array2D("u", 16, 16)
	u.Block = []int64{4, 4}
	b.Nest("n0", ir.L("k", 16)).Stmt(1, ir.R(u, ir.Var(0), ir.Var(0)))
	p := b.MustBuild()
	sub := placeAll(t, p, 2, 512, 2)
	got, err := Touches(p, sub)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteTouches(t, p, sub)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("diagonal blocked diverged:\n got %v\nwant %v", got, want)
	}
}

// checkRuns compares the walk of p with bruteTouches and requires Walk
// to have passed wantRuns runs.
func checkRuns(t *testing.T, p *ir.Program, sub *layout.Subsystem, wantRuns int) []Run {
	t.Helper()
	got, runs, err := walkRuns(p, sub)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteTouches(t, p, sub); !reflect.DeepEqual(got, want) {
		t.Fatalf("walk diverged from brute force:\n got %v\nwant %v", got, want)
	}
	if len(runs) != wantRuns {
		t.Fatalf("Walk passed %d runs, want %d", len(runs), wantRuns)
	}
	return runs
}

func TestWalkRepeatsNegativeRowStep(t *testing.T) {
	// u[15-i][j]: each run reads one 64-byte row, and the next run the
	// row before it. A 512-byte unit holds 8 rows, so each unit's top
	// row starts a run that the 7 rows below it repeat.
	b := ir.NewBuilder("p")
	u := b.Array2D("u", 16, 8)
	b.Nest("n0", ir.L("i", 16), ir.L("j", 8)).Stmt(1, ir.R(u, ir.Var(0).Times(-1).Plus(15), ir.Var(1)))
	p := b.MustBuild()
	runs := checkRuns(t, p, placeAll(t, p, 2, 512, 2), 2)
	for i, r := range runs {
		if r.Repeats != 7 || r.IterStep != 8 || len(r.Touches) != 1 {
			t.Errorf("run %d = %+v, want 1 touch repeated 7 times 8 iterations apart", i, r)
		}
	}
}

func TestWalkRepeatsZeroRowStep(t *testing.T) {
	// v[j] does not depend on i, so a row of i repeats its first run
	// to its end; u[k][j] moves with k, the loop outside the row, and
	// no repeat crosses from one k to the next.
	b := ir.NewBuilder("p")
	u := b.Array2D("u", 4, 100)
	v := b.Array1D("v", 100)
	b.Nest("n0", ir.L("k", 4), ir.L("i", 6), ir.L("j", 100)).
		Stmt(1, ir.R(v, ir.Var(2)), ir.W(u, ir.Var(0), ir.Var(2)))
	p := b.MustBuild()
	for _, r := range checkRuns(t, p, placeAll(t, p, 3, 512, 3), 4) {
		if r.Repeats != 5 {
			t.Errorf("run at iteration %d repeats %d times, want 5", r.Touches[0].Iter, r.Repeats)
		}
	}
}

func TestWalkRepeatsStraddleUnits(t *testing.T) {
	// v[2i+j+30] over 48 iterations reads bytes 240+16i through
	// 616+16i, and the next run reads them 16 bytes on. Runs 0-16 and
	// 26-39 straddle a 512-byte unit boundary with an offset within 16
	// bytes of it, so none repeats; run 17 reads bytes 512-888 of unit
	// 1, and runs 18-25 repeat it.
	b := ir.NewBuilder("p")
	v := b.Array1D("v", 256)
	b.Nest("n0", ir.L("i", 40), ir.L("j", 48)).
		Stmt(1, ir.R(v, ir.Var(0).Times(2).Add(ir.Var(1)).Plus(30)))
	p := b.MustBuild()
	for i, r := range checkRuns(t, p, placeAll(t, p, 2, 512, 2), 32) {
		wantTouches, wantRepeats := 2, int64(0)
		if i == 17 {
			wantTouches, wantRepeats = 1, 8
		}
		if len(r.Touches) != wantTouches || r.Repeats != wantRepeats {
			t.Errorf("run %d makes %d touches repeated %d times, want %d repeated %d times", i, len(r.Touches), r.Repeats, wantTouches, wantRepeats)
		}
	}
}

// overrunProgram reads v[i+j], j < 4, from an 800-byte v whose second
// 512-byte unit is partial, for i < rows: rows 98 and up leave the
// file.
func overrunProgram(rows int64) *ir.Program {
	b := ir.NewBuilder("p")
	v := b.Array1D("v", 100)
	b.Nest("n0", ir.L("i", rows), ir.L("j", 4)).Stmt(1, ir.R(v, ir.Var(0).Add(ir.Var(1))))
	return b.MustBuild()
}

// checkOverrun walks p and requires the touches of the in-bounds
// runs, then the error the first out-of-bounds run gives.
func checkOverrun(t *testing.T, p, inBounds *ir.Program, wantErr string) []Run {
	t.Helper()
	sub := placeAll(t, p, 2, 512, 2)
	got, runs, err := walkRuns(p, sub)
	if err == nil || err.Error() != wantErr {
		t.Fatalf("error %v, want %q", err, wantErr)
	}
	if want := bruteTouches(t, inBounds, placeAll(t, inBounds, 2, 512, 2)); !reflect.DeepEqual(got, want) {
		t.Fatalf("touches before the error diverged:\n got %v\nwant %v", got, want)
	}
	return runs
}

func TestWalkRepeatsStopAtFileEnd(t *testing.T) {
	// The run at i=64 reads bytes 512..536 of the partial unit. Its
	// offsets could move 60 rows before leaving the unit, but the file
	// ends after 32: the file bound stops the repeats, and row 97 fails.
	runs := checkOverrun(t, overrunProgram(120), overrunProgram(97),
		`access: nest 0 ("n0") stmt 0 ref 0: offset 800 outside file "v" of size 800`)
	r := runs[len(runs)-1]
	if r.Touches[0].Iter != 64*4 || r.Repeats != 32 {
		t.Fatalf("last run starts at iteration %d with %d repeats, want 256 and 32", r.Touches[0].Iter, r.Repeats)
	}
}

func TestWalkOutOfBoundsAfterRepeats(t *testing.T) {
	// u[15-i][j] for i < 18: rows 15 down to 0 collapse into two runs
	// of 7 repeats each, and row -1 fails with the error the first
	// out-of-bounds offset gives.
	prog := func(rows int64) *ir.Program {
		b := ir.NewBuilder("p")
		u := b.Array2D("u", 16, 8)
		b.Nest("n0", ir.L("i", rows), ir.L("j", 8)).Stmt(1, ir.R(u, ir.Var(0).Times(-1).Plus(15), ir.Var(1)))
		return b.MustBuild()
	}
	runs := checkOverrun(t, prog(18), prog(16),
		`access: nest 0 ("n0") stmt 0 ref 0: offset -64 outside file "u" of size 1024`)
	if len(runs) != 2 {
		t.Fatalf("Walk passed %d runs before the error, want 2", len(runs))
	}
}

// TestWalkRunCountsDefaultPlacement pins how many runs Walk passes to
// fn for each benchmark under the default staggered placement. Every
// run a benchmark's nests make is either passed or counted as a
// repeat; losing the collapse passes them all.
func TestWalkRunCountsDefaultPlacement(t *testing.T) {
	want := map[string]struct{ runs, all int64 }{
		"wupwise": {11809, 18496},
		"swim":    {384, 3072},
		"mgrid":   {4830, 41216},
		"applu":   {961, 7744},
		"mesa":    {417, 3344},
		"galgel":  {512, 4096},
	}
	for _, b := range workloads.All() {
		sub := layout.MustSubsystem(workloads.DefaultDisks)
		if err := PlaceArraysStaggered(b.Program, sub, workloads.DefaultDisks, workloads.UnitBytes, nil); err != nil {
			t.Fatal(err)
		}
		var runs, all int64
		err := Walk(b.Program, sub, func(r Run) error {
			runs++
			all += 1 + r.Repeats
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if w := want[b.Name]; runs != w.runs || all != w.all {
			t.Errorf("%s: Walk passed %d runs standing for %d, want %d for %d", b.Name, runs, all, w.runs, w.all)
		}
	}
}
