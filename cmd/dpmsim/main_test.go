package main

import "testing"

// TestReportOnStderr: an output on stdout moves the report to stderr,
// and a second output on stdout is a usage error.
func TestReportOnStderr(t *testing.T) {
	for _, tc := range []struct {
		metrics, trace, events string
		stderr, usage          bool
	}{
		{},
		{metrics: "m.prom", trace: "t.json", events: "e.jsonl"},
		{metrics: "-", stderr: true},
		{trace: "-", stderr: true},
		{events: "-", stderr: true},
		{metrics: "m.prom", trace: "-", events: "e.jsonl", stderr: true},
		{metrics: "-", trace: "-", usage: true},
		{metrics: "-", events: "-", usage: true},
		{trace: "-", events: "-", usage: true},
		{metrics: "-", trace: "-", events: "-", usage: true},
	} {
		stderr, err := reportOnStderr(tc.metrics, tc.trace, tc.events)
		if (err != nil) != tc.usage || stderr != tc.stderr {
			t.Errorf("-metrics-out %q -trace-out %q -events-out %q: report on stderr %t, err %v; want %t, usage error %t",
				tc.metrics, tc.trace, tc.events, stderr, err, tc.stderr, tc.usage)
		}
	}
}
