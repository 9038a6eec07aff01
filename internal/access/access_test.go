package access

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sdpm/internal/ir"
	"sdpm/internal/layout"
)

// Touches collects the full touch sequence of a (small) program.
func Touches(p *ir.Program, sub *layout.Subsystem) ([]Touch, error) {
	var out []Touch
	err := Walk(p, sub, func(t Touch) error {
		out = append(out, t)
		return nil
	})
	return out, err
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
	b := ir.NewBuilder("p")
	u := b.Array1D("u", 1024)
	b.Nest("n0", ir.L("i", 1024)).Stmt(1, ir.R(u, ir.Var(0)))
	p := b.MustBuild()
	sub := placeAll(t, p, 2, 512, 2)
	count := 0
	sentinel := errSentinel{}
	err := Walk(p, sub, func(Touch) error {
		count++
		if count == 3 {
			return sentinel
		}
		return nil
	})
	if err != sentinel || count != 3 {
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
