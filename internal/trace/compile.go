package trace

// The paper's workloads are long regular array sweeps: stretches of
// back-to-back requests with identical size and near-identical
// compute gaps, punctuated only by phase boundaries where the access
// pattern changes and (for the compiler-managed schemes) power ops
// fire. Compile run-length encodes that structure once per trace so
// the simulator's batched executor can service each stretch in a
// tight steady-state loop instead of the general event path.

// Run is one run-length unit of a compiled trace: a maximal stretch
// of consecutive request events (no power ops inside). Start/End
// index the source trace's Events slice; the remaining fields
// summarize the stretch for the batched executor and for diagnostic
// tooling. Per-request service time is deliberately not part of the
// compiled form: it depends on the disk model and the spindle speed
// at execution time, so the simulator derives and caches it per
// (disk, rpm, size) while walking the run.
type Run struct {
	// Start and End delimit the half-open event index range
	// [Start, End) of the run.
	Start, End int
	// Count is End - Start.
	Count int
	// Disk is the uniform disk index of every request in the run, or
	// -1 when the run interleaves disks.
	Disk int
	// Disks is the per-request disk index sequence for interleaved
	// runs (nil when Disk >= 0). Reading 2 bytes per request here
	// instead of a cache line from the event array is what lets the
	// batched executor stream a steady-state run without touching the
	// events at all. Indexed by event index minus Start.
	Disks []uint16
	// Bytes is the uniform request size, or 0 when sizes vary.
	Bytes int64
	// GapMS is the uniform inter-event compute gap, or -1 when the
	// gaps jitter (workload noise models produce per-request jitter,
	// so the executor always reads the gap per event; a uniform gap
	// here is informational).
	GapMS float64
}

// Compiled is the run-length compiled form of one trace. It is
// derived data only — the source trace remains the authority — and
// is memoized alongside instance memoization so schemes sharing a
// trace share the compiled form.
type Compiled struct {
	// NumEvents is len(Events) of the source trace.
	NumEvents int
	// first is the source trace's first event, which identifies its
	// event slice (see For).
	first *Event
	// Validated records that the source trace passed Validate at
	// compile time, letting the simulator skip re-validating the same
	// trace on every run. Like Runs, it speaks only for the exact
	// event slice Compile saw.
	Validated bool
	// PerDisk counts the requests per disk (all requests, whether or
	// not they landed in a Run); the simulator sizes its idle-period
	// lists from it without re-walking the trace.
	PerDisk []int
	// Runs lists the request stretches long enough to batch, in
	// ascending, non-overlapping Start order.
	Runs []Run
}

// minRunEvents is the shortest request stretch worth a Run entry.
// Shorter stretches go through the general event path; the threshold
// only bounds compiled-form size on pathologically fragmented traces
// (e.g. alternating request / power-op streams).
const minRunEvents = 4

// Compile run-length encodes tr. The result indexes tr.Events and is
// valid only for that exact event slice.
func Compile(tr *Trace) *Compiled {
	c := &Compiled{NumEvents: len(tr.Events), PerDisk: make([]int, tr.NumDisks)}
	if len(tr.Events) > 0 {
		c.first = &tr.Events[0]
	}
	c.Validated = tr.Validate() == nil
	i := 0
	for i < len(tr.Events) {
		if tr.Events[i].Kind != EvRequest {
			i++
			continue
		}
		j := i
		for j < len(tr.Events) && tr.Events[j].Kind == EvRequest {
			d := tr.Events[j].Req.Disk
			if d >= 0 && d < len(c.PerDisk) {
				c.PerDisk[d]++
			}
			j++
		}
		if j-i >= minRunEvents {
			first := &tr.Events[i]
			run := Run{
				Start: i, End: j, Count: j - i,
				Disk:  first.Req.Disk,
				Bytes: first.Req.Bytes,
				GapMS: first.GapMS,
			}
			for k := i + 1; k < j; k++ {
				e := &tr.Events[k]
				if e.Req.Disk != run.Disk {
					run.Disk = -1
				}
				if e.Req.Bytes != run.Bytes {
					run.Bytes = 0
				}
				if e.GapMS != run.GapMS {
					run.GapMS = -1
				}
			}
			if run.Disk < 0 {
				run.Disks = make([]uint16, run.Count)
				for k := i; k < j; k++ {
					d := tr.Events[k].Req.Disk
					if d < 0 || d > 0xFFFF {
						// Out-of-range index (an invalid trace, caught by
						// Validate elsewhere): no compact form.
						run.Disks = nil
						break
					}
					run.Disks[k-i] = uint16(d)
				}
			}
			c.Runs = append(c.Runs, run)
		}
		i = j
	}
	return c
}

// For reports whether c was compiled from tr's event slice: the same
// length and the same first element. A form compiled from another
// trace indexes events that are not tr's. An empty slice has no
// identity, so For never vouches for one.
func (c *Compiled) For(tr *Trace) bool {
	return c.NumEvents == len(tr.Events) && len(tr.Events) > 0 && c.first == &tr.Events[0]
}
