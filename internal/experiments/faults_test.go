package experiments

import (
	"math"
	"strings"
	"testing"
)

// TestFaultImpactDeterministicAcrossWorkers: the fault-sensitivity
// tables must be byte-identical at any worker count — the plan is
// derived from (seed, nDisks, severity) alone, never from scheduling.
func TestFaultImpactDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	render := func(workers int) string {
		s := NewSuite()
		s.Workers = workers
		s.FaultSeed = 12345
		energy, times, err := s.FaultImpact()
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		energy.Render(&sb)
		times.Render(&sb)
		return sb.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("fault tables differ between workers=1 and workers=8:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "heavy") || !strings.Contains(seq, "off") {
		t.Fatalf("severity rows missing:\n%s", seq)
	}
}

// TestFaultImpactShape: the fault-free Base cell is the normalization
// reference (exactly 1), every cell is positive and finite, and
// injected faults never reduce a scheme's execution time below its
// fault-free run.
func TestFaultImpactShape(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	s := NewSuite()
	s.FaultSeed = 1
	energy, times, err := s.FaultImpact()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := energy.Value("off", "Base"); !ok || v != 1 {
		t.Errorf("off/Base energy = %v, want exactly 1", v)
	}
	if v, ok := times.Value("off", "Base"); !ok || v != 1 {
		t.Errorf("off/Base time = %v, want exactly 1", v)
	}
	for _, tb := range []struct {
		name string
		t    interface {
			Value(string, string) (float64, bool)
		}
	}{{"energy", energy}, {"time", times}} {
		for _, row := range []string{"off", "light", "moderate", "heavy"} {
			for _, col := range []string{"Base", "TPM", "ITPM", "DRPM", "IDRPM", "CMTPM", "CMDRPM"} {
				v, ok := tb.t.Value(row, col)
				if !ok {
					t.Fatalf("%s table missing %s/%s", tb.name, row, col)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("%s %s/%s = %v, want positive finite", tb.name, row, col, v)
				}
			}
		}
	}
}
