package workloads

import (
	"math"
	"testing"

	"sdpm/internal/access"
	"sdpm/internal/disk"
	"sdpm/internal/insert"
	"sdpm/internal/layout"
	"sdpm/internal/sim"
	"sdpm/internal/tracegen"
	"sdpm/internal/xform"
)

// baseRun generates the benchmark's base trace under the default
// (staggered, Table 1) placement and simulates it without power
// management.
func baseRun(t *testing.T, b *Benchmark) (*sim.Result, []tracegen.Site) {
	t.Helper()
	p := disk.DefaultParams()
	sub := layout.MustSubsystem(DefaultDisks)
	if err := access.PlaceArraysStaggered(b.Program, sub, DefaultDisks, UnitBytes, nil); err != nil {
		t.Fatal(err)
	}
	sites, files, err := tracegen.Sites(b.Program, sub, b.CacheUnits)
	if err != nil {
		t.Fatal(err)
	}
	tr := insert.Base(b.Name, DefaultDisks, sites, insert.Options{Disk: p, Model: b.Model(), Files: files})
	res, err := sim.Run(tr, sim.Config{Disk: p, RecordIdles: true})
	if err != nil {
		t.Fatal(err)
	}
	return res, sites
}

func within(got, want, tolPct float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got/want-1) <= tolPct/100
}

func TestBenchmarkRegistry(t *testing.T) {
	all := All()
	if len(all) != 6 {
		t.Fatalf("benchmarks = %d", len(all))
	}
	names := Names()
	for i, b := range all {
		if b.Name != names[i] {
			t.Errorf("order mismatch: %s vs %s", b.Name, names[i])
		}
		got, err := ByName(b.Name)
		if err != nil || got.Name != b.Name {
			t.Errorf("ByName(%s) failed: %v", b.Name, err)
		}
		if err := b.Program.Validate(); err != nil {
			t.Errorf("%s: invalid program: %v", b.Name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestDataSizesMatchTable2(t *testing.T) {
	for _, b := range All() {
		gotMB := float64(b.Program.TotalBytes()) / (1 << 20)
		if !within(gotMB, b.Paper.DataMB, 5) {
			t.Errorf("%s: data %.1fMB, paper %.1fMB", b.Name, gotMB, b.Paper.DataMB)
		}
	}
}

func TestTable2Calibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run is slow")
	}
	for _, b := range All() {
		res, sites := baseRun(t, b)
		reqTol, timeTol := 10.0, 12.0
		if !within(float64(len(sites)), float64(b.Paper.Requests), reqTol) {
			t.Errorf("%s: requests %d, paper %d (%.1f%%)",
				b.Name, len(sites), b.Paper.Requests,
				100*(float64(len(sites))/float64(b.Paper.Requests)-1))
		}
		if !within(res.ExecMS, b.Paper.ExecMS, timeTol) {
			t.Errorf("%s: exec %.0fms, paper %.0fms (%.1f%%)",
				b.Name, res.ExecMS, b.Paper.ExecMS, 100*(res.ExecMS/b.Paper.ExecMS-1))
		}
		if !within(res.EnergyJ, b.Paper.EnergyJ, timeTol) {
			t.Errorf("%s: energy %.0fJ, paper %.0fJ (%.1f%%)",
				b.Name, res.EnergyJ, b.Paper.EnergyJ, 100*(res.EnergyJ/b.Paper.EnergyJ-1))
		}
		t.Logf("%-8s reqs %6d (paper %6d)  exec %8.0fms (paper %8.0f)  energy %7.0fJ (paper %8.2f)",
			b.Name, len(sites), b.Paper.Requests, res.ExecMS, b.Paper.ExecMS, res.EnergyJ, b.Paper.EnergyJ)
	}
}

func TestFissionabilityMatchesPaper(t *testing.T) {
	for _, b := range All() {
		if got := xform.Fissionable(b.Program); got != b.Fissionable {
			t.Errorf("%s: fissionable = %v, paper says %v", b.Name, got, b.Fissionable)
		}
	}
}

func TestArrayGroupCounts(t *testing.T) {
	// The fissionable benchmarks must form more than one array group
	// so LF+DL can separate disks; wupwise and galgel collapse to at
	// most two groups (galgel exactly one).
	wantMin := map[string]int{
		"swim": 3, "mgrid": 2, "applu": 3, "mesa": 3,
	}
	for _, b := range All() {
		groups := xform.ArrayGroups(b.Program)
		if min, ok := wantMin[b.Name]; ok {
			if len(groups) < min {
				t.Errorf("%s: %d array groups, want >= %d", b.Name, len(groups), min)
			}
		}
	}
	g, _ := ByName("galgel")
	if n := len(xform.ArrayGroups(g.Program)); n != 1 {
		t.Errorf("galgel groups = %d, want 1", n)
	}
}

func TestTransposedBenchmarksAreTileable(t *testing.T) {
	// wupwise, applu, mesa contain the non-conforming nest that
	// TL+DL repairs; tiling their costliest nest must succeed and
	// must transpose at least one array.
	for _, name := range []string{"wupwise", "applu", "mesa"} {
		b, _ := ByName(name)
		res, err := xform.Tile(b.Program, xform.TileOptions{
			UnitBytes: UnitBytes, NumDisks: DefaultDisks, LayoutAware: true,
			NestCost: nestRequestCounts(t, b),
		})
		if err != nil {
			t.Errorf("%s: tiling failed: %v", name, err)
			continue
		}
		if len(res.Transposed) == 0 {
			t.Errorf("%s: TL+DL transposed nothing", name)
		}
	}
}

// nestRequestCounts computes per-nest request counts of the base
// trace, the cost metric the experiments hand to the tiler.
func nestRequestCounts(t *testing.T, b *Benchmark) []float64 {
	t.Helper()
	sub := layout.MustSubsystem(DefaultDisks)
	if err := access.PlaceArraysStaggered(b.Program, sub, DefaultDisks, UnitBytes, nil); err != nil {
		t.Fatal(err)
	}
	sites, _, err := tracegen.Sites(b.Program, sub, b.CacheUnits)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(b.Program.Nests))
	for _, s := range sites {
		out[s.Nest]++
	}
	return out
}

func TestGalgelGainsNothingFromTransforms(t *testing.T) {
	b, _ := ByName("galgel")
	// Not fissionable, single array group: LF+DL degenerates to the
	// default layout.
	if xform.Fissionable(b.Program) {
		t.Error("galgel fissionable")
	}
	groups := xform.ArrayGroups(b.Program)
	st, err := xform.AssignGroupDisks(groups, DefaultDisks, UnitBytes)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range st {
		if s.Factor != DefaultDisks {
			t.Errorf("galgel group striped over %d disks, want %d", s.Factor, DefaultDisks)
		}
	}
	// Tiling succeeds but transposes nothing (conforming accesses).
	res, err := xform.Tile(b.Program, xform.TileOptions{
		UnitBytes: UnitBytes, NumDisks: DefaultDisks, LayoutAware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transposed) != 0 {
		t.Errorf("galgel transposed %v", res.Transposed)
	}
}

func TestHeterogeneousGapStructure(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	// Table 3 needs idle periods spread across the DRPM decision
	// boundaries: check that the benchmarks' per-disk idle periods
	// are not all in the saturated (>70ms) region.
	for _, name := range []string{"mesa", "applu", "mgrid"} {
		b, _ := ByName(name)
		res, _ := baseRun(t, b)
		short, total := 0, 0
		for _, idles := range res.Idles {
			for _, ip := range idles {
				if ip.LenMS <= 0 {
					continue
				}
				total++
				if ip.LenMS < 70 {
					short++
				}
			}
		}
		if total == 0 || float64(short)/float64(total) < 0.05 {
			t.Errorf("%s: only %d/%d idle periods below 70ms — no level sensitivity", name, short, total)
		}
	}
}

func TestRequestsSpreadAcrossDisks(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	// Under the default staggered placement every disk carries a
	// meaningful share of each benchmark's requests — the structure
	// behind the paper's per-disk idle-period lengths.
	for _, b := range All() {
		sub := layout.MustSubsystem(DefaultDisks)
		if err := access.PlaceArraysStaggered(b.Program, sub, DefaultDisks, UnitBytes, nil); err != nil {
			t.Fatal(err)
		}
		sites, _, err := tracegen.Sites(b.Program, sub, b.CacheUnits)
		if err != nil {
			t.Fatal(err)
		}
		perDisk := make([]int, DefaultDisks)
		for _, s := range sites {
			perDisk[s.Disk]++
		}
		mean := float64(len(sites)) / DefaultDisks
		for d, n := range perDisk {
			if float64(n) < 0.5*mean || float64(n) > 1.5*mean {
				t.Errorf("%s: disk %d carries %d of %d requests (mean %.0f)",
					b.Name, d, n, len(sites), mean)
			}
		}
	}
}
