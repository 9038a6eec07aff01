package obs

// RunMetrics accumulates the metrics of one simulation run in plain,
// unshared memory. Per request it takes the latency histograms and
// the spin-up misprediction counters. Everything else a run reports —
// requests, per-disk state and RPM residency, power ops and faults —
// the simulator already books in its per-disk accounts, and hands
// over once per disk with AddDisk when the run ends. Publish then adds
// the run's totals into its Collector, one atomic add per non-zero
// series, so concurrent runs share no cache line until they end. A
// RunMetrics is a plain value that one goroutine owns; the simulator
// keeps it in the run's machine.
//
// For one run into a fresh collector every series is bit-identical
// to adding each event into the collector directly, except that
// rpm="other" adds the run's per-level subtotals (see AddDisk). When
// runs share a collector, integer series are still exact, but a float
// sum adds each run's subtotal rather than each event, so it may
// differ from a per-event order in the last bits.
type RunMetrics struct {
	c *Collector
	// minRPM and rpmStep give the run's RPM grid, on which AddDisk's
	// residency arrives.
	minRPM, rpmStep int
	vals            [numMetrics]int64
	hists           [numHists]runHist
}

// runHist is one histogram's per-run buckets and sum.
type runHist struct {
	counts [len(bucketBoundsMS) + 1]int64
	sum    float64
}

// DiskAccount is one disk's account of a simulation run, as the
// simulator keeps it.
type DiskAccount struct {
	Requests int
	// StateMS is the disk's residency in each state, by DiskState.
	StateMS [numDiskStates]float64
	// RPMMS is the disk's spinning time (idle plus service) at each
	// level of the run's RPM grid, by level index.
	RPMMS []float64
	// Ops counts the disk's executed power ops in the order of
	// OpSpinDown, OpSpinUp and OpSetRPM.
	Ops [OpSetRPM - OpSpinDown + 1]int
	// Faults counts the disk's injected-fault events in the order of
	// FaultSpinUpFail through FaultDegraded.
	Faults [FaultDegraded - FaultSpinUpFail + 1]int
}

// StartRun counts one simulation run in SimRuns, ensures per-disk
// storage for its n disks (see EnsureDisks), and returns an empty
// accumulator for the run, whose disk model has numLevels RPM levels
// from minRPM in steps of rpmStep. A nil collector returns a detached
// accumulator, on which Publish and AddDisk do nothing. When the run
// ends, also when it fails, call AddDisk for each disk and then
// Publish exactly once.
func (c *Collector) StartRun(n, minRPM, rpmStep, numLevels int) RunMetrics {
	if c == nil {
		return RunMetrics{}
	}
	c.vals[SimRuns].Add(1)
	c.EnsureDisks(n, minRPM, rpmStep, numLevels)
	return RunMetrics{c: c, minRPM: minRPM, rpmStep: rpmStep}
}

// Attached reports whether r publishes into a collector.
func (r *RunMetrics) Attached() bool { return r.c != nil }

// Add adds delta to counter m.
func (r *RunMetrics) Add(m Metric, delta int64) { r.vals[m] += delta }

// ObserveRequest records one serviced request: its service time, its
// readiness wait, and the idle period that ended at its issue.
func (r *RunMetrics) ObserveRequest(svcMS, waitMS, idleMS float64) {
	r.hists[histSlot[ServiceMS]].observe(svcMS)
	r.hists[histSlot[WaitMS]].observe(waitMS)
	r.hists[histSlot[IdleMS]].observe(idleMS)
}

func (h *runHist) observe(v float64) {
	h.counts[bucket(v)]++
	h.sum += v
}

// AddDisk takes disk d's account of the run: its requests, power ops
// and faults count toward the run's totals, and its per-disk series go
// into the collector, one atomic add per non-zero series. Residency
// is binned on the grid of the collector's disk: a level of the run's
// grid that the collector's lacks adds to rpm="other".
func (r *RunMetrics) AddDisk(d int, a *DiskAccount) {
	if r.c == nil {
		return
	}
	r.vals[Requests] += int64(a.Requests)
	for i, n := range a.Ops {
		r.vals[OpSpinDown+Metric(i)] += int64(n)
	}
	for i, n := range a.Faults {
		r.vals[FaultSpinUpFail+Metric(i)] += int64(n)
	}
	ds := *r.c.disks.Load()
	if uint(d) >= uint(len(ds)) {
		return
	}
	dm := ds[d]
	if a.Requests != 0 {
		dm.requests.Add(int64(a.Requests))
	}
	for st, ms := range a.StateMS {
		if ms != 0 {
			dm.stateMS[st].Add(ms)
		}
	}
	var other float64
	for i, ms := range a.RPMMS {
		if ms == 0 {
			continue
		}
		if j, ok := dm.levelIndex(r.minRPM + i*r.rpmStep); ok {
			dm.rpmMS[j].Add(ms)
		} else {
			other += ms
		}
	}
	if other != 0 {
		dm.otherMS.Add(other)
	}
}

// Publish adds the run's totals into its collector, one atomic add
// per non-zero series. It does nothing on a detached accumulator.
func (r *RunMetrics) Publish() {
	c := r.c
	if c == nil {
		return
	}
	for m, v := range r.vals {
		if v != 0 {
			c.vals[m].Add(v)
		}
	}
	for i := range r.hists {
		h, ch := &r.hists[i], &c.hists[i]
		var n int64
		for b, k := range h.counts {
			if k != 0 {
				ch.counts[b].Add(k)
				n += k
			}
		}
		if n != 0 {
			ch.count.Add(n)
			ch.sum.Add(h.sum)
		}
	}
}
