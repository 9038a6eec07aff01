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

// TestEventLogDigests pins the exact JSONL bytes of decision event
// logs, at the default ring capacity and at a capacity of 100. Each
// run gets a fresh log. Regenerate with
// `go test ./internal/sim -run EventLogDigests -update` only after an
// intentional change to the event log.
//
// events_wupwise.sha256 holds wupwise's DRPM, IDRPM and CMDRPM runs.
// They emit tens of thousands of events, so the default ring holds
// decisions that resolve long after they were emitted, and the small
// ring evicts most of the log. The original code versions emit no
// TPM, ITPM or CMTPM event on any benchmark, so events_lfdl.sha256
// holds swim's and mgrid's LF+DL versions, whose clustered nests
// leave idle periods long enough for the TPM family to act, under
// TPM, ITPM, IDRPM and CMTPM.
func TestEventLogDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("prepares wupwise, swim and mgrid")
	}
	for _, c := range []struct {
		golden  string
		benches []string
		// version is the code version to prepare; empty prepares the
		// program itself, and its lines carry no instance name.
		version core.Version
		schemes []core.Scheme
	}{
		{"events_wupwise.sha256", []string{"wupwise"}, "",
			[]core.Scheme{core.DRPM, core.IDRPM, core.CMDRPM}},
		{"events_lfdl.sha256", []string{"swim", "mgrid"}, core.VLFDL,
			[]core.Scheme{core.TPM, core.ITPM, core.IDRPM, core.CMTPM}},
	} {
		var got strings.Builder
		for _, name := range c.benches {
			b, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.Model = b.Model()
			cfg.CacheUnits = b.CacheUnits
			var in *core.Instance
			if c.version == "" {
				in, err = core.Prepare(b.Name, b.Program, cfg, nil)
			} else {
				in, _, err = core.PrepareVersion(b.Name, b.Program, c.version, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			label := ""
			if c.version != "" {
				label = in.Name + " "
			}
			for _, capacity := range []int{events.DefaultCapacity, 100} {
				for _, s := range c.schemes {
					log := events.NewLog(capacity)
					in.Events = log
					if _, err := in.Run(s); err != nil {
						t.Fatalf("%s %s: %v", in.Name, s, err)
					}
					h := sha256.New()
					if err := events.WriteJSONL(h, log.Events()); err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&got, "%s%s cap=%d len=%d dropped=%d sha256=%x\n",
						label, s, capacity, log.Len(), log.Dropped(), h.Sum(nil))
				}
			}
		}
		path := filepath.Join("testdata", c.golden)
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
			t.Errorf("event log digests differ from %s:\ngot:\n%swant:\n%s", path, got.String(), want)
		}
	}
}
