// Package dap builds the Disk Access Pattern (DAP) of Section 3: for
// each disk, a compact list of idle/active transitions expressed in
// (nest, iteration) coordinates, as in the paper's example
//
//	< Nest 1, iteration 1,   idle   >
//	< Nest 2, iteration 50,  active >
//	< Nest 2, iteration 100, idle   >
//
// The DAP is derived from the request sites and the compiler's
// predicted timeline; consecutive requests on a disk closer together
// than the coalescing window belong to one active interval.
package dap

import (
	"fmt"
	"strings"

	"sdpm/internal/tracegen"
)

// State is a disk activity state.
type State uint8

// Disk activity states.
const (
	Idle State = iota
	Active
)

// String returns "idle" or "active".
func (s State) String() string {
	if s == Active {
		return "active"
	}
	return "idle"
}

// Entry is one DAP transition: from this (nest, iteration) on, the
// disk is in the given state. AtMS is the predicted time of the
// transition.
type Entry struct {
	Nest int
	Iter int64
	Stat State
	AtMS float64
}

// DAP is the per-disk access pattern.
type DAP struct {
	Disks [][]Entry
}

// DefaultCoalesceMS is the default active-interval coalescing window.
const DefaultCoalesceMS = 50

// Build constructs the DAP from the request sites and their predicted
// issue times (tracegen.PredictedIssueMS). serviceMS supplies the
// full-speed service time; coalesceMS <= 0 selects the default.
func Build(sites []tracegen.Site, issueMS []float64, numDisks int, serviceMS func(bytes int64) float64, coalesceMS float64) *DAP {
	if coalesceMS <= 0 {
		coalesceMS = DefaultCoalesceMS
	}
	d := &DAP{Disks: make([][]Entry, numDisks)}
	lastEnd := make([]float64, numDisks) // completion of the disk's current active interval
	lastSite := make([]int, numDisks)    // index of the interval's last site
	inActive := make([]bool, numDisks)
	for i := range d.Disks {
		d.Disks[i] = []Entry{{Nest: 0, Iter: 0, Stat: Idle, AtMS: 0}}
		lastSite[i] = -1
	}
	for i, s := range sites {
		dd := s.Disk
		end := issueMS[i] + serviceMS(s.Bytes)
		if inActive[dd] && issueMS[i]-lastEnd[dd] <= coalesceMS {
			// Extend the current active interval.
			lastEnd[dd] = end
			lastSite[dd] = i
			continue
		}
		if inActive[dd] {
			// Close the previous interval at its last request.
			p := sites[lastSite[dd]]
			d.Disks[dd] = append(d.Disks[dd], Entry{Nest: int(p.Nest), Iter: p.Iter + 1, Stat: Idle, AtMS: lastEnd[dd]})
		}
		d.Disks[dd] = append(d.Disks[dd], Entry{Nest: int(s.Nest), Iter: s.Iter, Stat: Active, AtMS: issueMS[i]})
		inActive[dd] = true
		lastEnd[dd] = end
		lastSite[dd] = i
	}
	for dd := range d.Disks {
		if inActive[dd] {
			p := sites[lastSite[dd]]
			d.Disks[dd] = append(d.Disks[dd], Entry{Nest: int(p.Nest), Iter: p.Iter + 1, Stat: Idle, AtMS: lastEnd[dd]})
		}
	}
	return d
}

// IdleMS returns the total predicted idle time of a disk up to
// endMS, summed over its idle intervals.
func (d *DAP) IdleMS(disk int, endMS float64) float64 {
	var total float64
	es := d.Disks[disk]
	for i, e := range es {
		if e.Stat != Idle {
			continue
		}
		next := endMS
		if i+1 < len(es) {
			next = es[i+1].AtMS
		}
		if next > e.AtMS {
			total += next - e.AtMS
		}
	}
	return total
}

// Format renders one disk's DAP in the paper's notation.
func (d *DAP) Format(disk int) string {
	var b strings.Builder
	for _, e := range d.Disks[disk] {
		fmt.Fprintf(&b, "< Nest %d, iteration %d, %s >\n", e.Nest, e.Iter, e.Stat)
	}
	return b.String()
}

// String renders the whole DAP.
func (d *DAP) String() string {
	var b strings.Builder
	for i := range d.Disks {
		fmt.Fprintf(&b, "disk%d:\n", i)
		for _, e := range d.Disks[i] {
			fmt.Fprintf(&b, "  < Nest %d, iteration %d, %s >\n", e.Nest, e.Iter, e.Stat)
		}
	}
	return b.String()
}
