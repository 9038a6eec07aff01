package obs

import (
	"encoding/json"
	"strings"
)

// Snapshot support: a point-in-time plain copy of every counter,
// gauge, and histogram in a Collector. Exporters render from a
// snapshot rather than interleaving atomic loads with formatting, so
// a live scrape mid-run can never show torn histogram totals (a
// _count that disagrees with the bucket sums because observations
// landed between the two loads). A snapshot marshals to JSON as the
// live /status endpoint's metrics object.

// HistogramSnapshot is a point-in-time copy of one Histogram. Count
// is derived from the bucket counts (not the independent count
// atomic), so Count == sum(Buckets) holds by construction even when
// the snapshot races concurrent observers.
type HistogramSnapshot struct {
	// Buckets holds per-bucket (non-cumulative) observation counts;
	// the last entry is the +Inf bucket.
	Buckets [len(bucketBoundsMS) + 1]int64 `json:"buckets"`
	Sum     float64                        `json:"sum"`
	Count   int64                          `json:"count"`
}

// snapshot copies h. The per-bucket loads race concurrent Observe
// calls benignly: each bucket is internally consistent, and Count is
// summed from exactly the loaded values.
func (h *Histogram) snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
		s.Count += s.Buckets[i]
	}
	s.Sum = h.sum.Load()
	return s
}

// DiskSnapshot is a point-in-time copy of one disk's accumulators.
type DiskSnapshot struct {
	Requests int64 `json:"requests"`
	// StateMS maps residency-state label (DiskState.String) to
	// accumulated milliseconds.
	StateMS map[string]float64 `json:"state_ms"`
	// RPMMS maps RPM level to accumulated spinning milliseconds
	// (levels with zero residency are omitted); OtherMS catches RPMs
	// outside the disk's level grid.
	RPMMS   map[int]float64 `json:"rpm_ms,omitempty"`
	OtherMS float64         `json:"other_rpm_ms,omitempty"`
}

// Snapshot is a point-in-time copy of a whole Collector.
type Snapshot struct {
	vals  [numMetrics]int64
	hists [numHists]HistogramSnapshot
	Disks []DiskSnapshot
}

// hist returns histogram m as of the snapshot.
func (s *Snapshot) hist(m Metric) *HistogramSnapshot { return &s.hists[histSlot[m]] }

// Snapshot reads every counter, gauge, and histogram once and returns
// the copies. A nil collector returns a zero snapshot. The snapshot
// allocates (maps, disk slice); it is meant for scrape/export paths,
// not per-event ones.
func (c *Collector) Snapshot() Snapshot {
	var s Snapshot
	if c == nil {
		return s
	}
	for m := range c.vals {
		s.vals[m] = c.vals[m].Load()
	}
	for i := range c.hists {
		s.hists[i] = c.hists[i].snapshot()
	}
	if ds := c.disks.Load(); ds != nil {
		s.Disks = make([]DiskSnapshot, len(*ds))
		for d, dm := range *ds {
			out := &s.Disks[d]
			out.Requests = dm.requests.Load()
			out.StateMS = make(map[string]float64, int(numDiskStates))
			for st := DiskState(0); st < numDiskStates; st++ {
				out.StateMS[st.String()] = dm.stateMS[st].Load()
			}
			for i := range dm.rpmMS {
				if ms := dm.rpmMS[i].Load(); ms != 0 {
					if out.RPMMS == nil {
						out.RPMMS = make(map[int]float64)
					}
					out.RPMMS[dm.minRPM+i*dm.rpmStep] = ms
				}
			}
			out.OtherMS = dm.otherMS.Load()
		}
	}
	return s
}

// MarshalJSON renders the snapshot as the /status metrics object: one
// entry per table family under its key, with the disks omitted when
// EnsureDisks never ran.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	out := make(map[string]any, numMetrics)
	var fam *desc
	for m := Metric(0); m < numMetrics; m++ {
		d := &table[m]
		if d.name != "" {
			fam = d
		}
		switch {
		case d.kind == histogram:
			out[d.key] = s.hist(m)
		case d.kind == perDisk:
			if len(s.Disks) > 0 {
				out[d.key] = s.Disks
			}
		case d.label == "":
			out[d.key] = s.vals[m]
		case strings.HasSuffix(fam.key, "_"):
			out[fam.key+d.label] = s.vals[m]
		default:
			group, ok := out[fam.key].(map[string]int64)
			if !ok {
				group = make(map[string]int64)
				out[fam.key] = group
			}
			group[d.label] = s.vals[m]
		}
	}
	return json.Marshal(out)
}
