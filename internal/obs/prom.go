package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WritePrometheus renders the collector in Prometheus text exposition
// format (version 0.0.4). The collector is read once into a Snapshot
// and rendered from it, so a scrape racing live writers can never
// show a histogram whose _count disagrees with its bucket sums.
// Output is deterministic: metric families appear in table order,
// disks in index order, RPM levels ascending. Histogram buckets are
// cumulative, as the format requires. A nil collector renders an
// empty (but valid) exposition.
func WritePrometheus(w io.Writer, c *Collector) error {
	if c == nil {
		return bufio.NewWriter(w).Flush()
	}
	s := c.Snapshot()
	return WritePrometheusSnapshot(w, &s)
}

// WritePrometheusSnapshot renders a previously-taken snapshot. Live
// endpoints that serve both /metrics and /status from one consistent
// read use this directly.
func WritePrometheusSnapshot(w io.Writer, s *Snapshot) error {
	bw := bufio.NewWriter(w)
	var fam *desc
	for m := Metric(0); m < numMetrics; m++ {
		d := &table[m]
		if d.kind == perDisk {
			writeDisks(bw, s.Disks)
			continue
		}
		if d.name != "" {
			fam = d
			header(bw, d.name, d.help, d.kind)
		}
		switch {
		case d.kind == histogram:
			writeHistogram(bw, d.name, s.hist(m))
		case d.label != "":
			fmt.Fprintf(bw, "%s{kind=%q} %d\n", fam.name, d.label, s.vals[m])
		case d.div != 0:
			fmt.Fprintf(bw, "%s %s\n", d.name, fmtFloat(float64(s.vals[m])/d.div))
		default:
			fmt.Fprintf(bw, "%s %d\n", d.name, s.vals[m])
		}
	}
	return bw.Flush()
}

// writeDisks renders the per-disk families; they are absent until
// EnsureDisks has run.
func writeDisks(w io.Writer, disks []DiskSnapshot) {
	if len(disks) == 0 {
		return
	}
	header(w, "sdpm_disk_requests_total", "Requests serviced per disk.", counter)
	for d := range disks {
		fmt.Fprintf(w, "sdpm_disk_requests_total{disk=\"%d\"} %d\n", d, disks[d].Requests)
	}
	header(w, "sdpm_disk_state_ms_total", "Per-disk residency by power state, in milliseconds.", counter)
	for d := range disks {
		for st := DiskState(0); st < numDiskStates; st++ {
			fmt.Fprintf(w, "sdpm_disk_state_ms_total{disk=\"%d\",state=%q} %s\n",
				d, st.String(), fmtFloat(disks[d].StateMS[st.String()]))
		}
	}
	header(w, "sdpm_disk_rpm_ms_total", "Per-disk spinning-time residency by RPM level, in milliseconds (zero levels omitted).", counter)
	for d := range disks {
		dm := &disks[d]
		rpms := make([]int, 0, len(dm.RPMMS))
		for rpm := range dm.RPMMS {
			rpms = append(rpms, rpm)
		}
		sort.Ints(rpms)
		for _, rpm := range rpms {
			fmt.Fprintf(w, "sdpm_disk_rpm_ms_total{disk=\"%d\",rpm=\"%d\"} %s\n",
				d, rpm, fmtFloat(dm.RPMMS[rpm]))
		}
		if dm.OtherMS != 0 {
			fmt.Fprintf(w, "sdpm_disk_rpm_ms_total{disk=\"%d\",rpm=\"other\"} %s\n", d, fmtFloat(dm.OtherMS))
		}
	}
}

func header(w io.Writer, name, help string, k kind) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, k)
}

func writeHistogram(w io.Writer, name string, h *HistogramSnapshot) {
	cum := int64(0)
	for i := range bucketBoundsMS {
		cum += h.Buckets[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, fmtFloat(bucketBoundsMS[i]), cum)
	}
	cum += h.Buckets[len(bucketBoundsMS)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", name, fmtFloat(h.Sum))
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
}

// fmtFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
