package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdpm/internal/workloads"
)

// TestBaseTraceDigests pins the uninstrumented runtime trace bit for
// bit: every event's gap, nominal arrival and request fields of
// BaseTrace for every benchmark and code version under the
// benchmark's default configuration. The reactive and oracle schemes
// all run this trace, so a change to how it is emitted must keep
// these digests. Regenerate with
// `go test ./internal/core -run BaseTraceDigests -update` only after
// an intentional change to the base trace.
func TestBaseTraceDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("prepares every benchmark version")
	}
	var got strings.Builder
	for _, b := range workloads.All() {
		cfg := DefaultConfig()
		cfg.Model = b.Model()
		cfg.CacheUnits = b.CacheUnits
		for _, v := range AllVersions() {
			in, _, err := PrepareVersion(b.Name, b.Program, v, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", b.Name, v, err)
			}
			tr := in.BaseTrace()
			fmt.Fprintf(&got, "%s %s events=%d sha256=%s\n", b.Name, v, len(tr.Events), eventsDigest(tr))
		}
	}
	path := filepath.Join("testdata", "base_traces.sha256")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("base-trace digests differ from %s:\ngot:\n%swant:\n%s", path, got.String(), want)
	}
}
