package xform

import (
	"sort"
	"testing"

	"sdpm/internal/ir"
)

// tileProgram: a depth-2 nest over a conforming array u[i][j] and a
// non-conforming (transposed access) array v[j][i].
func tileProgram(t *testing.T) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("tp")
	u := b.Array2D("u", 256, 256)
	v := b.Array2D("v", 256, 256)
	b.Nest("main", ir.L("i", 256), ir.L("j", 256)).
		Stmt(100,
			ir.R(u, ir.Var(0), ir.Var(1)),
			ir.W(v, ir.Var(1), ir.Var(0)))
	return b.MustBuild()
}

func TestTileBasicShape(t *testing.T) {
	p := tileProgram(t)
	res, err := Tile(p, TileOptions{UnitBytes: 65536, NumDisks: 8, LayoutAware: true})
	if err != nil {
		t.Fatal(err)
	}
	tp := res.Program
	if res.TiledNest != 0 {
		t.Fatalf("tiled nest = %d", res.TiledNest)
	}
	n := tp.Nests[0]
	if n.Depth() != 4 {
		t.Fatalf("tiled depth = %d", n.Depth())
	}
	// 64KB / 8B = 8192 elems; t1=128, t0=64 for 256x256.
	dims := res.TileDims
	if dims[0] != 64 || dims[1] != 128 {
		t.Fatalf("tile dims = %v", dims)
	}
	if n.Loops[0].Hi != 4 || n.Loops[1].Hi != 2 || n.Loops[2].Hi != 64 || n.Loops[3].Hi != 128 {
		t.Fatalf("loops = %+v", n.Loops)
	}
	// Iteration count preserved.
	if n.Trips() != 256*256 {
		t.Errorf("trips = %d", n.Trips())
	}
	if tp.TotalCost() != p.TotalCost() {
		t.Errorf("cost changed")
	}
	// Original untouched.
	if p.Nests[0].Depth() != 2 || p.ArrayByName("v").RowMajor != true {
		t.Error("Tile mutated its input")
	}
}

func TestTileLayoutAwareBlocksAndTransposes(t *testing.T) {
	p := tileProgram(t)
	res, err := Tile(p, TileOptions{UnitBytes: 65536, NumDisks: 8, LayoutAware: true})
	if err != nil {
		t.Fatal(err)
	}
	u := res.Program.ArrayByName("u")
	v := res.Program.ArrayByName("v")
	if u.Block == nil || u.Block[0] != 64 || u.Block[1] != 128 {
		t.Errorf("u block = %v", u.Block)
	}
	if !u.RowMajor {
		t.Error("conforming array transposed")
	}
	// v is accessed transposed: footprint is [128, 64] and storage
	// is flipped to column-major.
	if v.Block == nil || v.Block[0] != 128 || v.Block[1] != 64 {
		t.Errorf("v block = %v", v.Block)
	}
	if v.RowMajor {
		t.Error("non-conforming array not transposed")
	}
	if len(res.Transposed) != 1 || res.Transposed[0] != "v" {
		t.Errorf("transposed = %v", res.Transposed)
	}
	// Both arrays' stripe units equal the tile data size.
	for _, name := range []string{"u", "v"} {
		st, ok := res.Stripings[name]
		if !ok || st.UnitBytes != 65536 || st.Factor != 8 {
			t.Errorf("%s striping = %+v ok=%v", name, st, ok)
		}
	}
}

func TestTilePlainTLNoLayoutChanges(t *testing.T) {
	p := tileProgram(t)
	res, err := Tile(p, TileOptions{UnitBytes: 65536, NumDisks: 8, LayoutAware: false})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program.ArrayByName("u").Block != nil || res.Program.ArrayByName("v").Block != nil {
		t.Error("plain TL blocked arrays")
	}
	if !res.Program.ArrayByName("v").RowMajor {
		t.Error("plain TL transposed an array")
	}
	if len(res.Stripings) != 0 {
		t.Error("plain TL produced stripings")
	}
}

// elementSet returns the sorted multiset of (array, element-offset)
// pairs a program touches, using linear layouts, for semantics
// preservation checks.
func elementSet(t *testing.T, p *ir.Program) []int64 {
	t.Helper()
	var out []int64
	for _, n := range p.Nests {
		trips := n.Trips()
		for it := int64(0); it < trips; it++ {
			iv := n.IndexOf(it)
			for _, s := range n.Stmts {
				for ri := range s.Refs {
					r := &s.Refs[ri]
					// Encode (array identity, logical element index)
					// independent of storage layout.
					idx := make([]int64, len(r.Index))
					for d, e := range r.Index {
						idx[d] = e.Eval(iv)
					}
					var lin int64
					for d := 0; d < len(idx); d++ {
						lin = lin*r.Array.Dims[d] + idx[d]
					}
					out = append(out, int64(len(r.Array.Name))<<56|lin)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestTilePreservesAccessedElements(t *testing.T) {
	b := ir.NewBuilder("small")
	u := b.Array2D("u", 32, 32)
	vv := b.Array2D("vbig", 32, 32)
	b.Nest("n", ir.L("i", 32), ir.L("j", 32)).
		Stmt(1, ir.R(u, ir.Var(0), ir.Var(1)), ir.W(vv, ir.Var(1), ir.Var(0)))
	p := b.MustBuild()
	res, err := Tile(p, TileOptions{UnitBytes: 16 * 16 * 8, NumDisks: 4, LayoutAware: false})
	if err != nil {
		t.Fatal(err)
	}
	before := elementSet(t, p)
	after := elementSet(t, res.Program)
	if len(before) != len(after) {
		t.Fatalf("element count changed: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("element multiset changed at %d", i)
		}
	}
}

func TestTileUntileable(t *testing.T) {
	b := ir.NewBuilder("bad")
	u := b.Array1D("u", 100)
	b.Nest("n", ir.L("i", 100)).Stmt(1, ir.R(u, ir.Var(0))) // depth 1
	p := b.MustBuild()
	if _, err := Tile(p, TileOptions{UnitBytes: 65536, NumDisks: 8}); err == nil {
		t.Error("depth-1 nest tiled")
	}
	// Indivisible trip counts.
	b2 := ir.NewBuilder("bad2")
	w := b2.Array2D("w", 100, 100)
	b2.Nest("n", ir.L("i", 100), ir.L("j", 100)).Stmt(1, ir.R(w, ir.Var(0), ir.Var(1)))
	p2 := b2.MustBuild()
	if _, err := Tile(p2, TileOptions{UnitBytes: 65536, NumDisks: 8}); err == nil {
		t.Error("indivisible nest tiled")
	}
	if _, err := Tile(p2, TileOptions{UnitBytes: 0, NumDisks: 8}); err == nil {
		t.Error("zero unit accepted")
	}
}

func TestTileCostliestSelection(t *testing.T) {
	b := ir.NewBuilder("pick")
	small := b.Array2D("small", 128, 128)
	big := b.Array2D("big", 512, 512)
	b.Nest("light", ir.L("i", 128), ir.L("j", 128)).Stmt(1, ir.R(small, ir.Var(0), ir.Var(1)))
	b.Nest("heavy", ir.L("i", 512), ir.L("j", 512)).Stmt(1, ir.R(big, ir.Var(0), ir.Var(1)))
	p := b.MustBuild()
	res, err := Tile(p, TileOptions{UnitBytes: 65536, NumDisks: 8, LayoutAware: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.TiledNest != 1 {
		t.Errorf("tiled nest = %d, want 1", res.TiledNest)
	}
	if res.Program.ArrayByName("big").Block == nil {
		t.Error("big not blocked")
	}
	if res.Program.ArrayByName("small").Block != nil {
		t.Error("small blocked despite untiled nest")
	}
}

func TestPanelShape(t *testing.T) {
	b := ir.NewBuilder("p")
	u := b.Array2D("u", 256, 1024)
	b.Nest("n", ir.L("i", 256), ir.L("j", 1024)).Stmt(1, ir.R(u, ir.Var(0), ir.Var(1)))
	p := b.MustBuild()
	t0, t1, ok := panelShape(p.Nests[0], 65536)
	if !ok {
		t.Fatal("panel shape failed")
	}
	// 8192 elems / 1024 cols = 8 rows per panel, full width.
	if t0 != 8 || t1 != 1024 {
		t.Errorf("panel = %dx%d", t0, t1)
	}
	// Narrow row counts fall back to divisors.
	b2 := ir.NewBuilder("p2")
	v := b2.Array2D("v", 9, 2048)
	b2.Nest("n", ir.L("i", 9), ir.L("j", 2048)).Stmt(1, ir.R(v, ir.Var(0), ir.Var(1)))
	p2 := b2.MustBuild()
	t0, t1, ok = panelShape(p2.Nests[0], 65536)
	if !ok || t1 != 2048 {
		t.Fatalf("panel2 = %dx%d ok=%v", t0, t1, ok)
	}
	if 9%t0 != 0 {
		t.Errorf("panel rows %d do not divide 9", t0)
	}
	// Depth-1 nests are not panelable.
	b3 := ir.NewBuilder("p3")
	w := b3.Array1D("w", 64)
	b3.Nest("n", ir.L("i", 64)).Stmt(1, ir.R(w, ir.Var(0)))
	p3 := b3.MustBuild()
	if _, _, ok := panelShape(p3.Nests[0], 65536); ok {
		t.Error("depth-1 panelable")
	}
}

func TestPanelTilePreservesAccessOrder(t *testing.T) {
	// Panel-tiling a conforming row-major sweep leaves the element
	// visit order identical.
	b := ir.NewBuilder("p")
	u := b.Array2D("u", 32, 64)
	b.Nest("n", ir.L("i", 32), ir.L("j", 64)).Stmt(1, ir.R(u, ir.Var(0), ir.Var(1)))
	p := b.MustBuild()
	res, err := Tile(p, TileOptions{UnitBytes: 4096, NumDisks: 4, PanelTiles: true})
	if err != nil {
		t.Fatal(err)
	}
	tn := res.Program.Nests[0]
	orig := p.Nests[0]
	if tn.Trips() != orig.Trips() {
		t.Fatal("trip count changed")
	}
	for it := int64(0); it < orig.Trips(); it++ {
		a := orig.Stmts[0].Refs[0].OffsetAt(orig.IndexOf(it))
		bOff := tn.Stmts[0].Refs[0].OffsetAt(tn.IndexOf(it))
		if a != bOff {
			t.Fatalf("visit order changed at iteration %d: %d vs %d", it, a, bOff)
		}
	}
}

func TestClusterByGroup(t *testing.T) {
	b := ir.NewBuilder("p")
	u := b.Array1D("u", 1024)
	v := b.Array1D("v", 1024)
	// Interleaved nests over two independent arrays.
	b.Nest("u1", ir.L("i", 1024)).Stmt(1, ir.R(u, ir.Var(0)))
	b.Nest("v1", ir.L("i", 1024)).Stmt(1, ir.R(v, ir.Var(0)))
	b.Nest("u2", ir.L("i", 1024)).Stmt(1, ir.W(u, ir.Var(0)))
	b.Nest("v2", ir.L("i", 1024)).Stmt(1, ir.W(v, ir.Var(0)))
	p := b.MustBuild()
	cp := ClusterByGroup(p)
	var order []string
	for _, n := range cp.Nests {
		order = append(order, n.Label)
	}
	want := []string{"u1", "u2", "v1", "v2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	// Original untouched; totals preserved.
	if p.Nests[1].Label != "v1" {
		t.Error("input mutated")
	}
	if cp.TotalCost() != p.TotalCost() {
		t.Error("cost changed")
	}
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
}
