// Package tracegen implements the paper's trace generator: it turns
// an IR program plus a disk-subsystem placement into the sequence of
// disk I/O request sites the program makes, each at the compute-cycle
// position derived from the program's per-iteration cycle costs.
//
// The same request-site sequence feeds both sides of the system: the
// runtime trace (actual, jittered timing) consumed by the simulator,
// which insert emits with or without power-management calls, and the
// compiler's predicted timeline (mean timing) used to place those
// calls. Because the buffer cache model is deterministic, compiler and
// runtime agree exactly on *which* requests occur; they differ only in
// *when* — the source of the paper's speed mispredictions.
package tracegen

import (
	"fmt"
	"runtime"

	"sdpm/internal/access"
	"sdpm/internal/cache"
	"sdpm/internal/cycles"
	"sdpm/internal/ir"
	"sdpm/internal/layout"
	"sdpm/internal/trace"
)

// Site is one I/O request site: a buffer cache miss, located in the
// program's iteration space and on the disk subsystem. Like
// trace.Request it holds no pointer, with its fields ordered from
// widest to narrowest, so a site slice is compact and the garbage
// collector never scans it.
type Site struct {
	// Iter and Nest locate the request in iteration space.
	Iter int64
	// Unit, Block, Bytes, File, Disk and Kind describe the access.
	// File indexes the file-name table that came with the sites as
	// trace.Request.File indexes trace.Trace.Files: File f names
	// files[f-1], and 0 names no file.
	Unit  int64
	Block int64
	Bytes int64
	// CyclePos is the cumulative compute-cycle position of the
	// issuing iteration from program start.
	CyclePos int64
	Nest     int32
	File     int32
	Disk     int32
	Kind     trace.ReqKind
}

// siteBufs holds idle site buffers, a leaky free list. A walk appends
// into one and copies the result out at its final length, so the slice
// a caller keeps is allocated once; a buffer's growth is paid once,
// not once per walk. Unlike a sync.Pool, the list keeps its buffers
// across garbage collections, so the heap it retains does not change
// under a caller that measures it. It holds one idle buffer per
// processor, as many as can walk at once; a walk finding it empty
// starts a new buffer, and one finding it full drops its own.
var siteBufs = make(chan []Site, runtime.GOMAXPROCS(0))

// Sites runs the access-pattern walker through a buffer cache of
// cacheUnits stripe units and returns the program's request sites in
// program order, with the file-name table their File fields index
// (the files in order of first request). A cacheUnits of 0 (or less)
// disables the cache: every stripe-unit touch becomes a request.
func Sites(p *ir.Program, sub *layout.Subsystem, cacheUnits int) ([]Site, []string, error) {
	// Cumulative cycle base of each nest.
	base := make([]int64, len(p.Nests))
	var cum int64
	for i, n := range p.Nests {
		base[i] = cum
		cum += n.TotalCost()
	}
	bc := cache.New(cacheUnits)
	var files []string
	// fileOf[a] is the file index of the walk's array a, 0 until the
	// array's first request.
	var fileOf []int32
	var out []Site
	select {
	case out = <-siteBufs:
	default:
	}
	err := access.Walk(p, sub, func(t access.Touch) error {
		if bc.Touch(cache.Key{Array: t.Array, Unit: t.Unit}) {
			return nil
		}
		ext, err := sub.MapUnit(t.File, t.Unit)
		if err != nil {
			return err
		}
		kind := trace.Read
		if t.Kind == ir.Write {
			kind = trace.Write
		}
		for t.Array >= len(fileOf) {
			fileOf = append(fileOf, 0)
		}
		if fileOf[t.Array] == 0 {
			files = append(files, t.File)
			fileOf[t.Array] = int32(len(files))
		}
		out = append(out, Site{
			Nest: int32(t.Nest), Iter: t.Iter,
			File: fileOf[t.Array], Unit: t.Unit,
			Disk: int32(ext.Disk), Block: ext.Block, Bytes: ext.Bytes,
			Kind:     kind,
			CyclePos: base[t.Nest] + t.Iter*p.Nests[t.Nest].IterCost(),
		})
		return nil
	})
	// Copy the sites out before the buffer goes back to the list,
	// where another walk may take it.
	ss := make([]Site, len(out))
	copy(ss, out)
	select {
	case siteBufs <- out[:0]:
	default:
	}
	if err != nil {
		return nil, nil, err
	}
	return ss, files, nil
}

// PredictedIssueMS returns the compiler's predicted issue time of
// each site in a closed-loop schedule with the given full-speed
// service time: issue[i] = issue[i-1] + service(bytes[i-1]) + mean
// compute gap. This is the timeline the compiler uses to estimate
// disk idle periods.
func PredictedIssueMS(ss []Site, m *cycles.Model, serviceMS func(bytes int64) float64) []float64 {
	out := make([]float64, len(ss))
	var t float64
	var prevCycles int64
	for i, s := range ss {
		gapCycles := s.CyclePos - prevCycles
		if gapCycles < 0 {
			gapCycles = 0
		}
		prevCycles = s.CyclePos
		t += m.MeanMS(gapCycles)
		out[i] = t
		if serviceMS != nil {
			t += serviceMS(s.Bytes)
		}
	}
	return out
}

// Check verifies that the site stream is consistent with the
// subsystem (disks in range, cycle positions non-decreasing).
func Check(ss []Site, numDisks int) error {
	var prev int64
	for i, s := range ss {
		if s.Disk < 0 || int(s.Disk) >= numDisks {
			return fmt.Errorf("tracegen: site %d disk %d out of range", i, s.Disk)
		}
		if s.CyclePos < prev {
			return fmt.Errorf("tracegen: site %d cycle position decreases", i)
		}
		if s.Bytes <= 0 {
			return fmt.Errorf("tracegen: site %d non-positive size", i)
		}
		prev = s.CyclePos
	}
	return nil
}
