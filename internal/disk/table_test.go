package disk

import (
	"fmt"
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

// TestTableBitwiseIdentical sweeps every table query against its
// Params counterpart and requires bit-for-bit equality: the table is
// only allowed into the simulator's accounting and the decision rule
// because switching to it can never change a result.
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
			eq(t, "IdlePowerIdx", p.IdlePowerAt(r), tbl.IdlePowerIdx(i))
			eq(t, "ActivePowerIdx", p.ActivePowerAt(r), tbl.ActivePowerIdx(i))
			for _, b := range sizes {
				eq(t, "ServiceTimeSeekIdx at AvgSeekMS", p.ServiceTimeMS(r, b), tbl.ServiceTimeSeekIdx(i, b, p.AvgSeekMS))
				eq(t, "TransferTimeIdx", p.TransferTimeMS(r, b), tbl.TransferTimeIdx(i, b))
				for _, s := range seeks {
					eq(t, "ServiceTimeSeekIdx", p.ServiceTimeSeekMS(r, b, s), tbl.ServiceTimeSeekIdx(i, b, s))
				}
			}
			for j, r2 := range levels {
				eq(t, "TransitionEnergyIdx", p.TransitionEnergyJ(r, r2), tbl.TransitionEnergyIdx(i, j))
			}
			for _, idle := range idles {
				eq(t, "dipByIndex", p.DipEnergyJ(idle, r), tbl.dipByIndex(idle, i))
			}
		}
		for _, idle := range idles {
			checkDecide(t, p, tbl, idle)
		}
	}
}

// checkDecide compares Decide and OracleEnergyJ at idle with their
// Params references, level and energy bits: DRPM with BestRPMForIdle
// and BestRPMForTrailingIdle, TPM with StandbyEnergyJ and
// TrailingStandbyWins, and the regret oracle with the least of
// full-speed idle, a standby round trip and the best dip (for a
// trailing period, the best one-way dip and a spin-down with no
// spin-up).
func checkDecide(t *testing.T, p Params, tbl *Table, idle float64) {
	t.Helper()
	check := func(m Mechanism, trailing bool, wantLevel int, wantE float64) {
		t.Helper()
		what := fmt.Sprintf("Decide(%d, %v, trailing=%v)", m, idle, trailing)
		level, e := tbl.Decide(m, idle, trailing)
		if level != wantLevel {
			t.Errorf("%s level = %d, want %d for %+v", what, level, wantLevel, p)
		}
		eq(t, what+" energy", wantE, e)
	}
	r, e := p.BestRPMForIdle(idle)
	check(DRPM, false, r, e)
	r, e = p.BestRPMForTrailingIdle(idle)
	check(DRPM, true, r, e)
	stay := p.IdleEnergyJ(idle)
	if s := p.StandbyEnergyJ(idle); s < stay {
		check(TPM, false, Standby, s)
	} else {
		check(TPM, false, p.MaxRPM, stay)
	}
	if p.TrailingStandbyWins(idle) {
		check(TPM, true, Standby, p.SpinDownJ+p.StandbyW*(idle-p.SpinDownMS)/1e3)
	} else {
		check(TPM, true, p.MaxRPM, stay)
	}

	want := stay
	if s := p.StandbyEnergyJ(idle); s < want {
		want = s
	}
	if _, dip := p.BestRPMForIdle(idle); dip < want {
		want = dip
	}
	eq(t, fmt.Sprintf("OracleEnergyJ(%v)", idle), want, tbl.OracleEnergyJ(idle, false))
	_, want = p.BestRPMForTrailingIdle(idle)
	if idle >= p.SpinDownMS {
		if s := p.SpinDownJ + p.StandbyW*(idle-p.SpinDownMS)/1e3; s < want {
			want = s
		}
	}
	eq(t, fmt.Sprintf("OracleEnergyJ(%v, trailing)", idle), want, tbl.OracleEnergyJ(idle, true))
}

// TestTableIndexAccessors: Level maps each level index to its rpm,
// and ClampIndex agrees with Params.ClampLevel on and between the
// levels. TestTableBitwiseIdentical checks the values the ...Idx
// accessors serve.
func TestTableIndexAccessors(t *testing.T) {
	for _, p := range tableTestParams() {
		tbl := TableFor(p)
		for i, r := range p.Levels() {
			if tbl.Level(i) != r {
				t.Errorf("Level(%d) = %d, want %d", i, tbl.Level(i), r)
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
