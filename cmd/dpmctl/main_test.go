package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"sdpm/internal/serve"
)

// boot runs the real serve handler on a loopback listener.
func boot(t *testing.T) string {
	t.Helper()
	s, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return hs.URL
}

// ctl runs one dpmctl invocation and returns (exit, stdout, stderr).
func ctl(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestUsageErrors(t *testing.T) {
	base := boot(t)
	for _, args := range [][]string{
		{},                            // no command
		{"-addr", base, "frobnicate"}, // unknown command
		{"-addr", base, "sim"},        // sim without a bench
		{"-addr", base, "experiment"}, // experiment without an id
		{"-addr", base, "experiment", "a", "b"},
		{"-addr", base, "status", "extra"},
		{"-bogus-flag"},
	} {
		if code, _, _ := ctl(t, args...); code != 2 {
			t.Errorf("args %v: exit = %d, want 2", args, code)
		}
	}
}

func TestSimAndLists(t *testing.T) {
	base := boot(t)
	code, out, errw := ctl(t, "-addr", base, "sim", "swim", "CMDRPM")
	if code != 0 {
		t.Fatalf("sim exit = %d (%s)", code, errw)
	}
	if !strings.Contains(out, "bench=swim") || !strings.Contains(out, "scheme=CMDRPM") || !strings.Contains(out, "energy_j=") {
		t.Fatalf("sim output missing fields: %q", out)
	}

	code, out, _ = ctl(t, "-addr", base, "benchmarks")
	if code != 0 || !strings.Contains(out, "swim") {
		t.Fatalf("benchmarks = exit %d, out %q", code, out)
	}
	code, out, _ = ctl(t, "-addr", base, "experiments")
	if code != 0 || !strings.Contains(out, "table2") {
		t.Fatalf("experiments = exit %d, out %q", code, out)
	}
	code, out, _ = ctl(t, "-addr", base, "health")
	if code != 0 || out != "ok\n" {
		t.Fatalf("health = exit %d, out %q", code, out)
	}
	code, out, _ = ctl(t, "-addr", base, "status")
	if code != 0 || !strings.Contains(out, `"serve_inflight"`) {
		t.Fatalf("status = exit %d, out %q", code, out)
	}
}

// experiment output is the raw table, and -metrics reports the calls.
func TestExperimentAndMetrics(t *testing.T) {
	base := boot(t)
	code, out, errw := ctl(t, "-addr", base, "-metrics", "experiment", "table2")
	if code != 0 {
		t.Fatalf("experiment exit = %d (%s)", code, errw)
	}
	if !strings.Contains(out, "swim") {
		t.Fatalf("experiment table missing benchmark rows: %q", out)
	}
	if !strings.Contains(errw, "requests=1") || !strings.Contains(errw, "succeeded=1") {
		t.Fatalf("-metrics snapshot missing counters: %q", errw)
	}
}

// Server-side failures map to exit 1, not 2.
func TestRequestFailureExit(t *testing.T) {
	base := boot(t)
	// Unknown experiment id: the server answers a definitive 400.
	code, _, errw := ctl(t, "-addr", base, "-retries", "-1", "experiment", "no-such-id")
	if code != 1 {
		t.Fatalf("bad experiment id exit = %d (%s), want 1", code, errw)
	}
	// Nothing listening: exhausts retries.
	code, _, _ = ctl(t, "-addr", "http://127.0.0.1:1", "-retries", "-1", "health")
	if code != 1 {
		t.Fatalf("connection-refused exit = %d, want 1", code)
	}
}
