package obs

import "sync"

// RunMetrics accumulates the metrics of one simulation run in plain,
// unshared memory: request counts and latency histograms, per-disk
// state and RPM residency, power ops, spin-up mispredictions and
// faults. Publish adds the totals into the run's Collector with one
// atomic add per non-zero series, so concurrent runs share no cache
// line until they end. A RunMetrics belongs to one goroutine.
//
// For one run into a fresh collector every series is bit-identical
// to adding each event into the collector directly. When runs share
// a collector, integer series are still exact, but a float sum adds
// each run's subtotal rather than each event, so it may differ from
// a per-event order in the last bits.
type RunMetrics struct {
	c     *Collector
	vals  [numMetrics]int64
	hists [numHists]runHist
	disks []runDisk
}

// runHist is one histogram's per-run buckets and sum.
type runHist struct {
	counts [len(bucketBoundsMS) + 1]int64
	sum    float64
}

// runDisk is one disk's per-run accumulators. Its RPM residency uses
// the grid of the collector disk it publishes into, so time at an RPM
// that grid lacks lands in otherMS, as it does in the collector.
type runDisk struct {
	dm       *diskMetrics
	requests int64
	stateMS  [numDiskStates]float64
	rpmMS    []float64 // by dm's grid index
	otherMS  float64
}

// runPool holds finished runs' accumulators for reuse. A sync.Pool
// may drop what it is given (under the race detector it drops a
// quarter on purpose), so each collector also keeps its last finished
// accumulator in Collector.spare: runs that follow one another, as in
// the CLIs, reuse it and allocate nothing, and only overlapping runs
// go to the pool.
var runPool = sync.Pool{New: func() any { return new(RunMetrics) }}

// StartRun counts one simulation run in SimRuns, ensures per-disk
// storage for its n disks (see EnsureDisks), and returns an empty
// accumulator for it, reusing a finished run's. A nil collector
// returns nil. Call Publish exactly once when the run ends, also when
// it fails.
func (c *Collector) StartRun(n, minRPM, rpmStep, numLevels int) *RunMetrics {
	if c == nil {
		return nil
	}
	c.vals[SimRuns].Add(1)
	c.EnsureDisks(n, minRPM, rpmStep, numLevels)
	ds := *c.disks.Load()
	r := c.spare.Swap(nil)
	if r == nil {
		r = runPool.Get().(*RunMetrics)
	}
	r.c, r.vals, r.hists = c, [numMetrics]int64{}, [numHists]runHist{}
	if cap(r.disks) < n {
		r.disks = make([]runDisk, n)
	}
	r.disks = r.disks[:n]
	for d := range r.disks {
		rpmMS := r.disks[d].rpmMS
		if levels := len(ds[d].rpmMS); cap(rpmMS) < levels {
			rpmMS = make([]float64, levels)
		} else {
			rpmMS = rpmMS[:levels]
			clear(rpmMS)
		}
		r.disks[d] = runDisk{dm: ds[d], rpmMS: rpmMS}
	}
	return r
}

// Add adds delta to counter m.
func (r *RunMetrics) Add(m Metric, delta int64) { r.vals[m] += delta }

// ObserveRequest records one serviced request on disk d: its service
// time, its readiness wait, and the idle period that ended at its
// issue.
func (r *RunMetrics) ObserveRequest(d int, svcMS, waitMS, idleMS float64) {
	r.vals[Requests]++
	if uint(d) < uint(len(r.disks)) {
		r.disks[d].requests++
	}
	r.hists[histSlot[ServiceMS]].observe(svcMS)
	r.hists[histSlot[WaitMS]].observe(waitMS)
	r.hists[histSlot[IdleMS]].observe(idleMS)
}

// ObserveResidency accumulates ms of residency for disk d in the
// given state; rpm attributes spinning time (service/idle) to the
// disk's RPM residency grid and is ignored for the other states.
func (r *RunMetrics) ObserveResidency(d int, st DiskState, rpm int, ms float64) {
	if uint(d) >= uint(len(r.disks)) {
		return
	}
	rd := &r.disks[d]
	rd.stateMS[st] += ms
	if st == StateService || st == StateIdle {
		if i, ok := rd.dm.levelIndex(rpm); ok {
			rd.rpmMS[i] += ms
		} else {
			rd.otherMS += ms
		}
	}
}

func (h *runHist) observe(v float64) {
	h.counts[bucket(v)]++
	h.sum += v
}

// Publish adds the run's totals into its collector, one atomic add
// per non-zero series, and releases r for reuse; r must not be used
// afterwards. A nil r is a no-op.
func (r *RunMetrics) Publish() {
	if r == nil {
		return
	}
	c := r.c
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
	for d := range r.disks {
		rd := &r.disks[d]
		if rd.requests != 0 {
			rd.dm.requests.Add(rd.requests)
		}
		for st, ms := range rd.stateMS {
			if ms != 0 {
				rd.dm.stateMS[st].Add(ms)
			}
		}
		for i, ms := range rd.rpmMS {
			if ms != 0 {
				rd.dm.rpmMS[i].Add(ms)
			}
		}
		if rd.otherMS != 0 {
			rd.dm.otherMS.Add(rd.otherMS)
		}
	}
	if !c.spare.CompareAndSwap(nil, r) {
		runPool.Put(r)
	}
}
