package tracegen_test

import (
	"math/rand"
	"reflect"
	"testing"

	"sdpm/internal/access"
	"sdpm/internal/cache"
	"sdpm/internal/ir"
	"sdpm/internal/layout"
	"sdpm/internal/progen"
	"sdpm/internal/trace"
	"sdpm/internal/tracegen"
)

// perTouchSites is the reference for Sites: it expands every repeat of
// every run and sends each touch through a fresh LRU, so no skipped
// repeat can hide a request.
func perTouchSites(p *ir.Program, sub *layout.Subsystem, cacheUnits int) ([]tracegen.Site, []string, error) {
	var touches []access.Touch
	err := access.Walk(p, sub, func(run access.Run) error {
		for r := int64(0); r <= run.Repeats; r++ {
			for _, t := range run.Touches {
				t.Iter += r * run.IterStep
				touches = append(touches, t)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	base := make([]int64, len(p.Nests))
	for i := 1; i < len(p.Nests); i++ {
		base[i] = base[i-1] + p.Nests[i-1].TotalCost()
	}
	bc := cache.New(cacheUnits)
	var sites []tracegen.Site
	var files []string
	fileOf := map[int]int32{}
	for _, t := range touches {
		if bc.Touch(cache.Key{Array: t.Array, Unit: t.Unit}) {
			continue
		}
		ext, err := sub.MapUnit(t.File, t.Unit)
		if err != nil {
			return nil, nil, err
		}
		if _, ok := fileOf[t.Array]; !ok {
			files = append(files, t.File)
			fileOf[t.Array] = int32(len(files))
		}
		kind := trace.Read
		if t.Kind == ir.Write {
			kind = trace.Write
		}
		sites = append(sites, tracegen.Site{
			Iter: t.Iter, Unit: t.Unit, Block: ext.Block, Bytes: ext.Bytes,
			CyclePos: base[t.Nest] + t.Iter*p.Nests[t.Nest].IterCost(),
			Nest:     int32(t.Nest), File: fileOf[t.Array], Disk: int32(ext.Disk), Kind: kind,
		})
	}
	return sites, files, nil
}

// TestSitesMatchPerTouchLRU requires Sites, which skips the repeats of
// a run that fits the cache, to equal the per-touch reference on
// generated programs (blocked layouts included) at capacities around
// and well above a run's touch count.
func TestSitesMatchPerTouchLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 60; trial++ {
		p := progen.MustGenerate(rng, progen.DefaultOptions())
		nd := 1 + trial%6
		sub := layout.MustSubsystem(nd)
		if err := access.PlaceArraysStaggered(p, sub, 1+rng.Intn(nd), int64(512*(1+rng.Intn(4))), nil); err != nil {
			t.Fatal(err)
		}
		for _, capUnits := range []int{0, 1, 2, 3, 16, 1000} {
			got, gotFiles, err := tracegen.Sites(p, sub, capUnits)
			if err != nil {
				t.Fatal(err)
			}
			want, wantFiles, err := perTouchSites(p, sub, capUnits)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotFiles, wantFiles) {
				t.Fatalf("trial %d (%s, %d disks, cache %d): Sites gave %d sites over %v, the per-touch reference %d over %v",
					trial, p.Name, nd, capUnits, len(got), gotFiles, len(want), wantFiles)
			}
		}
	}
}
