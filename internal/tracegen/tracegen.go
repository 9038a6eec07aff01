// Package tracegen implements the paper's trace generator: it turns
// an IR program plus a disk-subsystem placement into the stream of
// disk I/O requests the program makes, with closed-loop compute gaps
// derived from the program's per-iteration cycle costs.
//
// The same request-site sequence feeds both sides of the system: the
// runtime trace (actual, jittered timing) consumed by the simulator,
// and the compiler's predicted timeline (mean timing) used to place
// power-management calls. Because the buffer cache model is
// deterministic, compiler and runtime agree exactly on *which*
// requests occur; they differ only in *when* — the source of the
// paper's speed mispredictions.
package tracegen

import (
	"fmt"

	"sdpm/internal/access"
	"sdpm/internal/cache"
	"sdpm/internal/cycles"
	"sdpm/internal/ir"
	"sdpm/internal/layout"
	"sdpm/internal/trace"
)

// DefaultCacheUnits is the default buffer cache capacity in stripe
// units.
const DefaultCacheUnits = 64

// Site is one I/O request site: a buffer cache miss, located in the
// program's iteration space and on the disk subsystem.
type Site struct {
	// Nest and Iter locate the request in iteration space.
	Nest int
	Iter int64
	// File, Unit, Disk, Block, Bytes, Kind describe the access.
	File  string
	Unit  int64
	Disk  int
	Block int64
	Bytes int64
	Kind  trace.ReqKind
	// CyclePos is the cumulative compute-cycle position of the
	// issuing iteration from program start.
	CyclePos int64
}

// Sites runs the access-pattern walker through the buffer cache model
// and returns the program's request sites in program order.
// cacheUnits <= 0 selects DefaultCacheUnits; use SitesNoCache for a
// cacheless run.
func Sites(p *ir.Program, sub *layout.Subsystem, cacheUnits int) ([]Site, error) {
	if cacheUnits <= 0 {
		cacheUnits = DefaultCacheUnits
	}
	return sites(p, sub, cacheUnits)
}

// SitesNoCache returns the request sites with the buffer cache
// disabled: every stripe-unit touch becomes a request.
func SitesNoCache(p *ir.Program, sub *layout.Subsystem) ([]Site, error) {
	return sites(p, sub, 0)
}

func sites(p *ir.Program, sub *layout.Subsystem, cacheUnits int) ([]Site, error) {
	// Cumulative cycle base of each nest.
	base := make([]int64, len(p.Nests))
	var cum int64
	for i, n := range p.Nests {
		base[i] = cum
		cum += n.TotalCost()
	}
	bc := cache.New(cacheUnits)
	var out []Site
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
		out = append(out, Site{
			Nest: t.Nest, Iter: t.Iter,
			File: t.File, Unit: t.Unit,
			Disk: ext.Disk, Block: ext.Block, Bytes: ext.Bytes,
			Kind:     kind,
			CyclePos: base[t.Nest] + t.Iter*p.Nests[t.Nest].IterCost(),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Options configures trace generation.
type Options struct {
	// Model converts cycles to time and supplies execution jitter.
	// nil selects the default 750 MHz model with no jitter.
	Model *cycles.Model
	// NominalServiceMS, if non-nil, supplies the full-speed service
	// time used to compute the nominal arrival timestamps of the
	// paper's trace format. If nil, arrivals reflect compute gaps
	// only.
	NominalServiceMS func(bytes int64) float64
}

func (o *Options) model() *cycles.Model {
	if o.Model != nil {
		return o.Model
	}
	return cycles.New(cycles.DefaultClockHz, 0, 0)
}

// FromSites assembles a program's runtime I/O trace from its request
// sites, with actual (jittered) closed-loop compute gaps.
func FromSites(program string, numDisks int, ss []Site, opts Options) *trace.Trace {
	m := opts.model()
	tr := &trace.Trace{Program: program, NumDisks: numDisks}
	tr.Events = make([]trace.Event, 0, len(ss))
	var prevCycles int64
	var arrival float64
	for i, s := range ss {
		gapCycles := s.CyclePos - prevCycles
		if gapCycles < 0 {
			gapCycles = 0
		}
		prevCycles = s.CyclePos
		gap := m.ActualMSIn(gapCycles, uint64(i), s.Nest)
		arrival += gap
		tr.Events = append(tr.Events, trace.Event{
			Kind:  trace.EvRequest,
			GapMS: gap,
			Req: trace.Request{
				ArrivalMS: arrival,
				Disk:      s.Disk, Block: s.Block, Bytes: s.Bytes, Kind: s.Kind,
				File: s.File, Unit: s.Unit, Nest: s.Nest, Iter: s.Iter,
			},
		})
		if opts.NominalServiceMS != nil {
			arrival += opts.NominalServiceMS(s.Bytes)
		}
	}
	return tr
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
		if s.Disk < 0 || s.Disk >= numDisks {
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
