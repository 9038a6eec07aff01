package oracle

import (
	"testing"

	"sdpm/internal/cycles"
	"sdpm/internal/disk"
	"sdpm/internal/insert"
	"sdpm/internal/sim"
	"sdpm/internal/trace"
	"sdpm/internal/tracegen"
)

func rrSites(nd, n int, thinkMS float64) []tracegen.Site {
	m := cycles.New(cycles.DefaultClockHz, 0, 0)
	thinkCyc := m.CyclesForMS(thinkMS)
	out := make([]tracegen.Site, n)
	for i := range out {
		out[i] = tracegen.Site{
			Unit: int64(i), Iter: int64(i),
			Disk: int32(i % nd), Block: int64(i/nd) * 128, Bytes: 65536,
			Kind: trace.Read, CyclePos: int64(i) * thinkCyc,
		}
	}
	return out
}

func runBase(t *testing.T, ss []tracegen.Site, nd int, m *cycles.Model, p disk.Params) *sim.Result {
	t.Helper()
	bt := insert.Base("t", nd, ss, insert.Options{Disk: p, Model: m})
	res, err := sim.Run(bt, sim.Config{Disk: p, RecordIdles: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestZeroNoiseZeroMisprediction(t *testing.T) {
	p := disk.DefaultParams()
	m := cycles.New(cycles.DefaultClockHz, 0, 1)
	ss := rrSites(8, 800, 3.44)
	_, plan, err := insert.Instrument("rr", 8, ss, insert.Options{Mode: insert.ModeDRPM, Disk: p, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	base := runBase(t, ss, 8, m, p)
	st, err := Mispredictions(plan, base.Idles, p)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalGaps != 800+8 {
		t.Errorf("gaps = %d", st.TotalGaps)
	}
	// With exact cycle estimates the compiler's idle predictions are
	// exact, so every level matches the oracle.
	if st.Mispredicted != 0 {
		t.Errorf("mispredicted %d gaps (%.1f%%) with zero noise", st.Mispredicted, st.Pct)
	}
}

// hetSites builds sites spread over several nests with different
// compute densities, so per-disk idle periods land in the
// level-sensitive 10..60ms band where estimation bias flips the
// chosen speed.
func hetSites(nd, perNest, nests int) []tracegen.Site {
	m := cycles.New(cycles.DefaultClockHz, 0, 0)
	var out []tracegen.Site
	var cyc int64
	i := 0
	for n := 0; n < nests; n++ {
		think := 0.5 + float64(n%6)*0.9 // 0.5 .. 5.0 ms per request
		thinkCyc := m.CyclesForMS(think)
		for k := 0; k < perNest; k++ {
			cyc += thinkCyc
			out = append(out, tracegen.Site{
				Nest: int32(n), Iter: int64(k), Unit: int64(i),
				Disk: int32(i % nd), Block: int64(i/nd) * 128, Bytes: 65536,
				Kind: trace.Read, CyclePos: cyc,
			})
			i++
		}
	}
	return out
}

func TestBiasCausesMispredictions(t *testing.T) {
	p := disk.DefaultParams()
	m := cycles.New(cycles.DefaultClockHz, 10, 9)
	m.BiasPct = 25
	ss := hetSites(8, 240, 12)
	_, plan, err := insert.Instrument("het", 8, ss, insert.Options{Mode: insert.ModeDRPM, Disk: p, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	base := runBase(t, ss, 8, m, p)
	st, err := Mispredictions(plan, base.Idles, p)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Table 3 reports 5-27% mispredictions.
	if st.Pct < 1 {
		t.Errorf("misprediction %.2f%% too low despite 25%% bias", st.Pct)
	}
	if st.Pct > 60 {
		t.Errorf("misprediction %.1f%% implausibly high", st.Pct)
	}
	if st.MeanAbsLevelError <= 0 {
		t.Error("zero level error with mispredictions present")
	}
}

func TestMoreBiasMoreMispredictions(t *testing.T) {
	p := disk.DefaultParams()
	ss := hetSites(8, 240, 12)
	pcts := make([]float64, 0, 3)
	for _, bias := range []float64{0, 15, 40} {
		m := cycles.New(cycles.DefaultClockHz, 5, 9)
		m.BiasPct = bias
		_, plan, err := insert.Instrument("het", 8, ss, insert.Options{Mode: insert.ModeDRPM, Disk: p, Model: m})
		if err != nil {
			t.Fatal(err)
		}
		base := runBase(t, ss, 8, m, p)
		st, err := Mispredictions(plan, base.Idles, p)
		if err != nil {
			t.Fatal(err)
		}
		pcts = append(pcts, st.Pct)
	}
	if !(pcts[0] < pcts[1] && pcts[1] <= pcts[2]) {
		t.Errorf("misprediction not increasing with bias: %v", pcts)
	}
}

func TestMispredictionsErrors(t *testing.T) {
	p := disk.DefaultParams()
	ss := rrSites(2, 8, 3.44)
	_, planTPM, err := insert.Instrument("rr", 2, ss, insert.Options{Mode: insert.ModeTPM, Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Mispredictions(planTPM, nil, p); err == nil {
		t.Error("TPM plan accepted")
	}
	_, plan, err := insert.Instrument("rr", 2, ss, insert.Options{Mode: insert.ModeDRPM, Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Mispredictions(plan, make([][]sim.IdlePeriod, 1), p); err == nil {
		t.Error("disk count mismatch accepted")
	}
	bad := make([][]sim.IdlePeriod, 2)
	bad[0] = make([]sim.IdlePeriod, 1)
	bad[1] = make([]sim.IdlePeriod, 1)
	if _, err := Mispredictions(plan, bad, p); err == nil {
		t.Error("gap count mismatch accepted")
	}
}
