package obs

import (
	"bytes"
	"strings"
	"testing"
)

// The serving-layer counters, gauges, and histograms accumulate,
// snapshot, and render — and every method is nil-receiver safe, like
// the rest of the collector.
func TestServeMetrics(t *testing.T) {
	c := New()
	c.Add(ServeAccepted, 1)
	c.Observe(ServeWaitMS, 1.5)
	c.Add(ServeAccepted, 1)
	c.Observe(ServeWaitMS, 40)
	c.Observe(ServeMS, 12)
	c.Add(ServeShed, 1)
	c.Add(ServeShed, 1)
	c.Add(ServeDeadline, 1)
	c.Add(ServeCanceled, 1)
	c.Add(ServeDrains, 1)
	c.Add(ServeJournalErrors, 1)
	c.Add(ServeJournalRecoveries, 1)
	c.Add(ServeJournalRecoveries, 1)
	c.Add(ServeInflight, 1)
	c.Add(ServeQueued, 2)
	c.Add(ServeQueued, -1)

	accepted, shed, deadline, canceled, drains := c.Value(ServeAccepted), c.Value(ServeShed),
		c.Value(ServeDeadline), c.Value(ServeCanceled), c.Value(ServeDrains)
	if accepted != 2 || shed != 2 || deadline != 1 || canceled != 1 || drains != 1 {
		t.Fatalf("serve counters = %d %d %d %d %d", accepted, shed, deadline, canceled, drains)
	}
	if c.Value(ServeJournalErrors) != 1 || c.Value(ServeJournalRecoveries) != 2 {
		t.Fatalf("journal counters = %d errors, %d recoveries", c.Value(ServeJournalErrors), c.Value(ServeJournalRecoveries))
	}
	inflight, queued := c.Value(ServeInflight), c.Value(ServeQueued)
	if inflight != 1 || queued != 1 {
		t.Fatalf("serve gauges = %d %d", inflight, queued)
	}

	s := c.Snapshot()
	if s.vals[ServeAccepted] != 2 || s.vals[ServeShed] != 2 || s.vals[ServeDeadline] != 1 ||
		s.vals[ServeCanceled] != 1 || s.vals[ServeDrains] != 1 ||
		s.vals[ServeJournalErrors] != 1 || s.vals[ServeJournalRecoveries] != 2 ||
		s.vals[ServeInflight] != 1 || s.vals[ServeQueued] != 1 {
		t.Fatalf("snapshot serve fields wrong: %+v", s)
	}
	if s.hist(ServeWaitMS).Count != 2 || s.hist(ServeMS).Count != 1 {
		t.Fatalf("serve histograms: wait count %d, handle count %d", s.hist(ServeWaitMS).Count, s.hist(ServeMS).Count)
	}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, series := range []string{
		"sdpm_serve_accepted_total 2",
		"sdpm_serve_shed_total 2",
		"sdpm_serve_deadline_total 1",
		"sdpm_serve_canceled_total 1",
		"sdpm_serve_drains_total 1",
		"sdpm_serve_journal_errors_total 1",
		"sdpm_serve_journal_recoveries_total 2",
		"sdpm_serve_inflight 1",
		"sdpm_serve_queue_depth 1",
		"sdpm_serve_queue_wait_ms_count 2",
		"sdpm_serve_handle_ms_count 1",
	} {
		if !strings.Contains(out, series) {
			t.Fatalf("prometheus output missing %q:\n%s", series, out)
		}
	}
}

// A nil collector absorbs every serving-layer call and reports zeros,
// so unobserved servers need no branches.
func TestServeMetricsNilCollector(t *testing.T) {
	var c *Collector
	c.Add(ServeAccepted, 1)
	c.Observe(ServeWaitMS, 1)
	c.Observe(ServeMS, 1)
	c.Add(ServeShed, 1)
	c.Add(ServeDeadline, 1)
	c.Add(ServeCanceled, 1)
	c.Add(ServeDrains, 1)
	c.Add(ServeJournalErrors, 1)
	c.Add(ServeJournalRecoveries, 1)
	c.Add(ServeInflight, 1)
	c.Add(ServeQueued, 1)
	if a, s, d, x, dr := c.Value(ServeAccepted), c.Value(ServeShed), c.Value(ServeDeadline), c.Value(ServeCanceled), c.Value(ServeDrains); a|s|d|x|dr != 0 {
		t.Fatalf("nil serve counters = %d %d %d %d %d", a, s, d, x, dr)
	}
	if c.Value(ServeJournalErrors) != 0 || c.Value(ServeJournalRecoveries) != 0 {
		t.Fatalf("nil journal counters nonzero")
	}
	if i, q := c.Value(ServeInflight), c.Value(ServeQueued); i|q != 0 {
		t.Fatalf("nil serve gauges = %d %d", i, q)
	}
}
