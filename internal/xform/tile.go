package xform

import (
	"fmt"

	"sdpm/internal/ir"
	"sdpm/internal/layout"
)

// TileOptions configures the layout-aware loop tiling transformation
// of Figure 12.
type TileOptions struct {
	// UnitBytes is the target per-tile data size DS(i) — the stripe
	// unit the blocked arrays will use.
	UnitBytes int64
	// NumDisks is the subsystem size used for the tile-to-disk
	// striping the transformation emits.
	NumDisks int
	// LayoutAware enables the DL part: layout transposition for
	// non-conforming arrays, blocked storage, and per-array stripe
	// sizes equal to the tile size. Without it the result is the
	// paper's plain TL version.
	LayoutAware bool
	// NestCost optionally supplies a per-nest disk-energy cost (for
	// example the per-nest request counts of a base trace). When
	// set, the costliest nest is the one with the highest NestCost;
	// otherwise the total referenced data size is used as a proxy.
	NestCost []float64
	// PanelTiles selects conventional row-panel tiles (full loop
	// width, unit-sized row strips) instead of square-ish 2-D tiles.
	// This is the shape a layout-oblivious (CPU-cache oriented)
	// tiler would use on these sweeps; with linear layouts it leaves
	// the disk access order unchanged — which is precisely why the
	// paper's plain TL version yields no disk-energy benefit.
	PanelTiles bool
}

// TileResult is the outcome of the tiling transformation.
type TileResult struct {
	// Program is the transformed program.
	Program *ir.Program
	// TiledNest is the index (in Program.Nests) of the nest that was
	// tiled: the costliest one.
	TiledNest int
	// TileDims holds the tile extents chosen for the tiled nest's two
	// original loops.
	TileDims [2]int64
	// Stripings holds the per-array disk layouts the transformation
	// determined (only for LayoutAware mode; arrays it did not block
	// are absent and keep the default layout).
	Stripings map[string]layout.Striping
	// Transposed lists arrays whose storage order was flipped to
	// conform to the access pattern.
	Transposed []string
}

// candidate tile edge lengths for the innermost dimension, tried in
// order.
var tileEdges = []int64{128, 64, 256, 32, 512, 16}

// Tile applies the layout-aware tiling algorithm. It selects the
// costliest nest (the one referencing the most data — the paper's
// "most costly nest as far as disk energy is concerned"), tiles it,
// and in LayoutAware mode re-layouts the arrays it references. It
// returns an error if that nest is not tileable.
func Tile(p *ir.Program, opts TileOptions) (*TileResult, error) {
	if opts.UnitBytes <= 0 {
		return nil, fmt.Errorf("xform: tile unit must be positive")
	}
	cp := p.Clone()
	res := &TileResult{
		Program:   cp,
		Stripings: make(map[string]layout.Striping),
	}
	ci := -1
	if len(opts.NestCost) == len(cp.Nests) && len(cp.Nests) > 0 {
		for i := range opts.NestCost {
			if ci < 0 || opts.NestCost[i] > opts.NestCost[ci] {
				ci = i
			}
		}
	} else {
		ci = costliestNest(cp)
	}
	if ci < 0 {
		return nil, fmt.Errorf("xform: program has no nests")
	}
	shape := tileShape
	if opts.PanelTiles {
		shape = panelShape
	}
	t0, t1, ok := shape(cp.Nests[ci], opts.UnitBytes)
	if !ok {
		return nil, fmt.Errorf("xform: costliest nest %q is not tileable", cp.Nests[ci].Label)
	}
	tileNest(cp.Nests[ci], t0, t1)
	res.TiledNest = ci
	res.TileDims = [2]int64{t0, t1}
	if opts.LayoutAware {
		res.applyLayout(cp.Nests[ci], t0, t1, opts)
	}
	if err := cp.Validate(); err != nil {
		return nil, fmt.Errorf("xform: tiled program invalid: %w", err)
	}
	return res, nil
}

// costliestNest returns the index of the nest referencing the most
// array data, the proxy for per-nest disk energy.
func costliestNest(p *ir.Program) int {
	best, bestBytes := -1, int64(-1)
	for i, n := range p.Nests {
		var b int64
		for _, a := range n.Arrays() {
			b += a.SizeBytes()
		}
		if b > bestBytes {
			best, bestBytes = i, b
		}
	}
	return best
}

// tileShape decides the tile extents (t0, t1) for a nest, or reports
// that the nest is not tileable: it must be a depth-2 nest with
// zero-based unit-step loops whose trip counts are divisible by a
// tile shape holding unitBytes of an 8-byte-element array.
func tileShape(n *ir.Nest, unitBytes int64) (int64, int64, bool) {
	if n.Depth() != 2 {
		return 0, 0, false
	}
	for _, l := range n.Loops {
		if l.Lo != 0 || l.Step != 1 {
			return 0, 0, false
		}
	}
	var elem int64 = 8
	for _, a := range n.Arrays() {
		elem = a.ElemSize
		break
	}
	tileElems := unitBytes / elem
	if tileElems <= 0 {
		return 0, 0, false
	}
	n0, n1 := n.Loops[0].Hi, n.Loops[1].Hi
	for _, t1 := range tileEdges {
		t0 := tileElems / t1
		if t0 <= 0 || t0*t1 != tileElems {
			continue
		}
		if n1%t1 == 0 && n0%t0 == 0 && t0 <= n0 && t1 <= n1 {
			return t0, t1, true
		}
	}
	return 0, 0, false
}

// panelShape decides row-panel tile extents: the full inner width
// and a row-strip height holding roughly one stripe unit.
func panelShape(n *ir.Nest, unitBytes int64) (int64, int64, bool) {
	if n.Depth() != 2 {
		return 0, 0, false
	}
	for _, l := range n.Loops {
		if l.Lo != 0 || l.Step != 1 {
			return 0, 0, false
		}
	}
	var elem int64 = 8
	for _, a := range n.Arrays() {
		elem = a.ElemSize
		break
	}
	tileElems := unitBytes / elem
	n0, n1 := n.Loops[0].Hi, n.Loops[1].Hi
	t0 := tileElems / n1
	if t0 < 1 {
		t0 = 1
	}
	for t0 > 1 && n0%t0 != 0 {
		t0--
	}
	if n0%t0 != 0 {
		return 0, 0, false
	}
	return t0, n1, true
}

// tileNest rewrites a depth-2 nest in place into its tiled form with
// tile iterators (ii, jj) and element iterators (ti, tj), using the
// affine substitution i = ii*t0 + ti, j = jj*t1 + tj.
func tileNest(n *ir.Nest, t0, t1 int64) {
	n0, n1 := n.Loops[0].Hi, n.Loops[1].Hi
	name0, name1 := n.Loops[0].Name, n.Loops[1].Name
	n.Loops = []ir.Loop{
		{Name: name0 + name0, Lo: 0, Hi: n0 / t0, Step: 1},
		{Name: name1 + name1, Lo: 0, Hi: n1 / t1, Step: 1},
		{Name: "t" + name0, Lo: 0, Hi: t0, Step: 1},
		{Name: "t" + name1, Lo: 0, Hi: t1, Step: 1},
	}
	for _, s := range n.Stmts {
		for ri := range s.Refs {
			for di, e := range s.Refs[ri].Index {
				c0, c1 := e.CoeffAt(0), e.CoeffAt(1)
				s.Refs[ri].Index[di] = ir.Expr{
					Coeffs: []int64{c0 * t0, c1 * t1, c0, c1},
					Const:  e.Const,
				}
			}
		}
	}
}

// applyLayout performs the DL part of TL+DL on the arrays of a tiled
// nest: transpose non-conforming arrays, store them in blocked
// (tile-contiguous) order, and set their stripe size to the per-tile
// data size.
func (res *TileResult) applyLayout(n *ir.Nest, t0, t1 int64, opts TileOptions) {
	for _, a := range n.Arrays() {
		if len(a.Dims) != 2 || a.Block != nil {
			continue
		}
		// Find a representative reference to determine the access
		// orientation and the per-dimension tile footprint.
		var ref *ir.Ref
		for _, s := range n.Stmts {
			for ri := range s.Refs {
				if s.Refs[ri].Array == a {
					ref = &s.Refs[ri]
					break
				}
			}
			if ref != nil {
				break
			}
		}
		if ref == nil {
			continue
		}
		// Footprint of each array dimension over the element
		// iterators (depths 2 and 3 after tiling).
		ext := make([]int64, 2)
		for di, e := range ref.Index {
			f := abs64(e.CoeffAt(2))*t0 + abs64(e.CoeffAt(3))*t1
			ext[di] = f
		}
		if ext[0] <= 0 || ext[1] <= 0 ||
			a.Dims[0]%ext[0] != 0 || a.Dims[1]%ext[1] != 0 {
			continue
		}
		// Non-conforming access: the innermost element iterator (tj,
		// depth 3) drives array dimension 0 — transpose the storage
		// (row-major -> column-major), the paper's layout transform.
		if ref.Index[0].CoeffAt(3) != 0 && ref.Index[1].CoeffAt(3) == 0 {
			if a.RowMajor {
				a.RowMajor = false
				res.Transposed = append(res.Transposed, a.Name)
			}
		}
		a.Block = []int64{ext[0], ext[1]}
		res.Stripings[a.Name] = layout.Striping{
			StartDisk: 0,
			Factor:    opts.NumDisks,
			UnitBytes: ext[0] * ext[1] * a.ElemSize,
		}
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
