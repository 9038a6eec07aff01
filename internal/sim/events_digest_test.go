package sim_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdpm/internal/core"
	"sdpm/internal/obs/events"
	"sdpm/internal/workloads"
)

// TestEventLogDigests pins the exact JSONL bytes of the event logs of
// wupwise's DRPM, IDRPM and CMDRPM runs, at the default ring capacity
// and at a capacity of 100. The runs emit tens of thousands of
// events, so the default ring holds decisions that resolve long after
// they were emitted, and the small ring evicts most of the log. Each
// run gets a fresh log. Regenerate with
// `go test ./internal/sim -run EventLogDigests -update` only after an
// intentional change to the event log.
func TestEventLogDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("prepares wupwise")
	}
	b, err := workloads.ByName("wupwise")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Model = b.Model()
	cfg.CacheUnits = b.CacheUnits
	in, err := core.Prepare(b.Name, b.Program, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, capacity := range []int{events.DefaultCapacity, 100} {
		for _, s := range []core.Scheme{core.DRPM, core.IDRPM, core.CMDRPM} {
			log := events.NewLog(capacity)
			in.Events = log
			if _, err := in.Run(s); err != nil {
				t.Fatalf("%s: %v", s, err)
			}
			h := sha256.New()
			if err := events.WriteJSONL(h, log.Events()); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s cap=%d len=%d dropped=%d sha256=%x\n", s, capacity, log.Len(), log.Dropped(), h.Sum(nil))
		}
	}
	path := filepath.Join("testdata", "events_wupwise.sha256")
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
		t.Fatalf("event log digests differ from %s:\ngot:\n%swant:\n%s", path, got.String(), want)
	}
}
