package disk

import (
	"math"
	"testing"
)

// tableTestParams returns the parameter sets the bitwise-equality
// sweep covers: the defaults plus variants that move every constant
// feeding the cached expressions.
func tableTestParams() []Params {
	base := DefaultParams()
	alt := base
	alt.SpindleExp = 2.2
	alt.ElectronicsW = 1.1
	alt.IdleW = 9.7
	alt.ActiveW = 14.1
	alt.TransferMBps = 42
	alt.AvgRotMS = 3.1
	alt.RPMStepTimeMS = 2.25
	coarse := base
	coarse.MinRPM = 6000
	coarse.RPMStep = 3000
	return []Params{base, alt, coarse}
}

// TestTableBitwiseIdentical sweeps every table method against its
// Params counterpart and requires bit-for-bit equality: the table is
// only allowed into the simulator's accounting because switching to
// it can never change a result.
func TestTableBitwiseIdentical(t *testing.T) {
	idles := []float64{0, 0.5, 7, 40, 100, 1500, 12400, 12400.000001, 99999.25, 1e7}
	sizes := []int64{512, 4096, 65536, 1 << 20}
	seeks := []float64{0, 0.6, 3.4, 5.9}
	for _, p := range tableTestParams() {
		if err := p.Validate(); err != nil {
			t.Fatalf("bad test params: %v", err)
		}
		tbl := TableFor(p)
		if tbl != TableFor(p) {
			t.Fatalf("TableFor is not memoized for %+v", p)
		}
		levels := p.Levels()
		// Each level's round trip is a breakpoint of the best-RPM
		// table under these models; probe it and its float neighbours.
		idles := idles[:len(idles):len(idles)]
		for _, r := range levels {
			bp := 2 * p.TransitionTimeMS(p.MaxRPM, r)
			idles = append(idles, math.Nextafter(bp, 0), bp, math.Nextafter(bp, math.Inf(1)))
		}
		for i, r := range levels {
			eq(t, "IdlePowerAt", p.IdlePowerAt(r), tbl.IdlePowerAt(r))
			eq(t, "ActivePowerAt", p.ActivePowerAt(r), tbl.ActivePowerAt(r))
			for _, b := range sizes {
				eq(t, "ServiceTimeMS", p.ServiceTimeMS(r, b), tbl.ServiceTimeMS(r, b))
				eq(t, "TransferTimeIdx", p.TransferTimeMS(r, b), tbl.TransferTimeIdx(i, b))
				for _, s := range seeks {
					eq(t, "ServiceTimeSeekMS", p.ServiceTimeSeekMS(r, b, s), tbl.ServiceTimeSeekMS(r, b, s))
				}
			}
			for _, r2 := range levels {
				eq(t, "TransitionEnergyJ", p.TransitionEnergyJ(r, r2), tbl.TransitionEnergyJ(r, r2))
			}
			for _, idle := range idles {
				eq(t, "DipEnergyJ", p.DipEnergyJ(idle, r), tbl.DipEnergyJ(idle, r))
			}
		}
		for _, idle := range idles {
			wantR, wantE := p.BestRPMForIdle(idle)
			gotR, gotE := tbl.BestRPMForIdle(idle)
			if wantR != gotR {
				t.Errorf("BestRPMForIdle(%g): rpm %d != %d", idle, gotR, wantR)
			}
			eq(t, "BestRPMForIdle energy", wantE, gotE)
			wantR, wantE = p.BestRPMForTrailingIdle(idle)
			gotR, gotE = tbl.BestRPMForTrailingIdle(idle)
			if wantR != gotR {
				t.Errorf("BestRPMForTrailingIdle(%g): rpm %d != %d", idle, gotR, wantR)
			}
			eq(t, "BestRPMForTrailingIdle energy", wantE, gotE)
		}
		// Off-grid RPMs take the fallback path.
		for _, r := range []int{0, p.MinRPM - 1, p.MinRPM + 1, p.MaxRPM + p.RPMStep} {
			eq(t, "IdlePowerAt off-grid", p.IdlePowerAt(r), tbl.IdlePowerAt(r))
			eq(t, "ActivePowerAt off-grid", p.ActivePowerAt(r), tbl.ActivePowerAt(r))
		}
	}
}

// TestTableIndexAccessors: each level-index accessor returns what its
// rpm-keyed counterpart returns for that level (TransferTimeIdx, which
// has none on the table, what Params.TransferTimeMS returns), and
// ClampIndex agrees with Params.ClampLevel on and between the levels.
func TestTableIndexAccessors(t *testing.T) {
	for _, p := range tableTestParams() {
		tbl := TableFor(p)
		levels := p.Levels()
		for i, r := range levels {
			if tbl.Level(i) != r {
				t.Errorf("Level(%d) = %d, want %d", i, tbl.Level(i), r)
			}
			eq(t, "IdlePowerIdx", tbl.IdlePowerAt(r), tbl.IdlePowerIdx(i))
			eq(t, "ActivePowerIdx", tbl.ActivePowerAt(r), tbl.ActivePowerIdx(i))
			eq(t, "ServiceTimeSeekIdx", tbl.ServiceTimeSeekMS(r, 65536, 3.4), tbl.ServiceTimeSeekIdx(i, 65536, 3.4))
			eq(t, "TransferTimeIdx", p.TransferTimeMS(r, 65536), tbl.TransferTimeIdx(i, 65536))
			for j, r2 := range levels {
				eq(t, "TransitionEnergyIdx", tbl.TransitionEnergyJ(r, r2), tbl.TransitionEnergyIdx(i, j))
			}
		}
		for _, r := range []int{0, p.MinRPM - 1, p.MinRPM, p.MinRPM + 1, p.MaxRPM - 1, p.MaxRPM, p.MaxRPM + 1} {
			if got, want := tbl.Level(tbl.ClampIndex(r)), p.ClampLevel(r); got != want {
				t.Errorf("Level(ClampIndex(%d)) = %d, ClampLevel %d", r, got, want)
			}
		}
	}
}

// eq fails unless a and b are the same float64 bit pattern (treating
// all NaNs as equal).
func eq(t *testing.T, what string, want, got float64) {
	t.Helper()
	if math.Float64bits(want) != math.Float64bits(got) &&
		!(math.IsNaN(want) && math.IsNaN(got)) {
		t.Errorf("%s: got %v (%#x), want %v (%#x)", what,
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func TestTableDegenerateParamsFallBack(t *testing.T) {
	p := DefaultParams()
	p.RPMStep = 0 // invalid: table must stay degenerate, not panic
	tbl := TableFor(p)
	if tbl.n != 0 {
		t.Fatalf("degenerate params built %d levels", tbl.n)
	}
}
