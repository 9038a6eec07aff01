package trace

// The paper's workloads are long regular array sweeps: stretches of
// back-to-back requests punctuated only by phase boundaries where the
// access pattern changes and (for the compiler-managed schemes) power
// ops fire. The workloads jitter every request's compute gap, and a
// stretch may interleave disks and sizes, so Compile records only
// where the stretches lie; the simulator's batched executor reads each
// request's disk, size and gap from the event itself while it services
// the stretch in a tight loop instead of the general event path.

// Run is one run-length unit of a compiled trace: a maximal stretch
// of consecutive request events (no power ops inside). Start/End
// index the source trace's Events slice. Per-request service time is
// deliberately not part of the compiled form: it depends on the disk
// model and the spindle speed at execution time, so the simulator
// derives and caches it per (disk, level, size) while walking the
// run.
type Run struct {
	// Start and End delimit the half-open event index range
	// [Start, End) of the run.
	Start, End int
	// Count is End - Start.
	Count int
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
	// event slice Compile saw. An invalid trace compiles to a form
	// with Validated false, no PerDisk and no Runs.
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
	c := &Compiled{NumEvents: len(tr.Events)}
	if len(tr.Events) > 0 {
		c.first = &tr.Events[0]
	}
	if tr.Validate() != nil {
		return c
	}
	c.Validated = true
	c.PerDisk = make([]int, tr.NumDisks)
	i := 0
	for i < len(tr.Events) {
		if tr.Events[i].Kind != EvRequest {
			i++
			continue
		}
		j := i
		for j < len(tr.Events) && tr.Events[j].Kind == EvRequest {
			c.PerDisk[tr.Events[j].Req.Disk]++
			j++
		}
		if j-i >= minRunEvents {
			c.Runs = append(c.Runs, Run{Start: i, End: j, Count: j - i})
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
