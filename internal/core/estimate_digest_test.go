package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdpm/internal/cycles"
	"sdpm/internal/workloads"
)

// TestEstimateDigests pins the compiler's energy estimates and the
// Table 3 analysis bit for bit: EstimateEnergy for Base, CMTPM and
// CMDRPM, SelectScheme's choice and energy, and Mispredictions'
// counts, percentage and mean level error, for every benchmark and
// code version under the benchmark's default configuration. The
// golden outputs round these figures, so a change to the idle-period
// decision rule must keep these digests. Regenerate with
// `go test ./internal/core -run EstimateDigests -update` only after
// an intentional change to the estimates.
func TestEstimateDigests(t *testing.T) {
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
			d := newDigest()
			for _, s := range []Scheme{Base, CMTPM, CMDRPM} {
				e, err := in.EstimateEnergy(s)
				if err != nil {
					t.Fatalf("%s %s %s: %v", b.Name, v, s, err)
				}
				d.str(string(s))
				d.floats(e)
			}
			s, e, err := in.SelectScheme()
			if err != nil {
				t.Fatalf("%s %s: %v", b.Name, v, err)
			}
			d.str(string(s))
			d.floats(e)
			st, err := in.Mispredictions()
			if err != nil {
				t.Fatalf("%s %s: %v", b.Name, v, err)
			}
			d.ints(int64(st.TotalGaps), int64(st.Mispredicted))
			d.floats(st.Pct, st.MeanAbsLevelError)
			fmt.Fprintf(&got, "%s %s select=%s gaps=%d wrong=%d sha256=%s\n",
				b.Name, v, s, st.TotalGaps, st.Mispredicted, d.sum())
		}
	}
	path := filepath.Join("testdata", "estimates.sha256")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("estimate digests differ from %s:\ngot:\n%swant:\n%s", path, got.String(), want)
	}
}

// TestExactModelNoMispredictions machine-checks that Table 3's
// mispredictions come only from cycle-estimate error (DESIGN.md §6):
// with a cycle model that has neither noise nor bias, the compiler's
// predicted idle lengths equal the base run's actual ones, so the
// plan's level for every gap must be the level the ideal scheme picks
// for the actual idle length, on every benchmark and code version.
func TestExactModelNoMispredictions(t *testing.T) {
	if testing.Short() {
		t.Skip("prepares every benchmark version")
	}
	for _, b := range workloads.All() {
		cfg := DefaultConfig()
		cfg.Model = cycles.New(cycles.DefaultClockHz, 0, b.Seed)
		cfg.CacheUnits = b.CacheUnits
		for _, v := range AllVersions() {
			in, _, err := PrepareVersion(b.Name, b.Program, v, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", b.Name, v, err)
			}
			st, err := in.Mispredictions()
			if err != nil {
				t.Fatalf("%s %s: %v", b.Name, v, err)
			}
			if st.TotalGaps == 0 || st.Mispredicted != 0 {
				t.Errorf("%s %s: %d of %d gaps mispredicted with an exact cycle model",
					b.Name, v, st.Mispredicted, st.TotalGaps)
			}
		}
	}
}
