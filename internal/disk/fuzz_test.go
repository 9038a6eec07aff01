package disk

import (
	"math"
	"testing"
)

// FuzzBreakEven drives the idle-energy decision math with arbitrary
// parameter combinations: any Params that Validate accepts must yield
// panic-free, NaN-free break-even and idle-energy figures, since the
// policies consume them without further checks.
func FuzzBreakEven(f *testing.F) {
	d := DefaultParams()
	f.Add(d.MaxRPM, d.MinRPM, d.RPMStep, d.AvgSeekMS, d.AvgRotMS, d.TransferMBps,
		d.ActiveW, d.IdleW, d.StandbyW, d.SpinDownJ, d.SpinDownMS, d.SpinUpJ, d.SpinUpMS)
	f.Add(6000, 3000, 3000, 1.0, 1.0, 10.0, 5.0, 4.0, 4.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(15000, 15000, 1200, 0.0, 0.1, 0.5, 20.0, 1.0, 0.0, 1e6, 1e6, 1e6, 1e6)
	f.Add(15000, 3000, 1200, 3.4, 2.0, 55.0, 13.5, 10.2, 2.5, 13.0, 1500.0, math.Inf(1), 10900.0)
	f.Fuzz(func(t *testing.T, maxRPM, minRPM, step int,
		avgSeek, avgRot, transfer, activeW, idleW, standbyW,
		spinDownJ, spinDownMS, spinUpJ, spinUpMS float64) {
		p := DefaultParams()
		p.MaxRPM, p.MinRPM, p.RPMStep = maxRPM, minRPM, step
		p.AvgSeekMS, p.AvgRotMS, p.TransferMBps = avgSeek, avgRot, transfer
		p.ActiveW, p.IdleW, p.StandbyW = activeW, idleW, standbyW
		p.SpinDownJ, p.SpinDownMS, p.SpinUpJ, p.SpinUpMS = spinDownJ, spinDownMS, spinUpJ, spinUpMS
		if p.ElectronicsW >= p.IdleW {
			p.ElectronicsW = 0
		}
		if p.Validate() != nil {
			return
		}
		if p.NumLevels() > 1024 {
			t.Skip("level grid too large to sweep")
		}
		be := p.TPMBreakEvenMS()
		if math.IsNaN(be) || be < 0 {
			t.Fatalf("TPMBreakEvenMS = %v for %+v", be, p)
		}
		for _, idle := range []float64{0, 1, p.SpinDownMS + p.SpinUpMS, be, 2 * be, 1e7} {
			if math.IsInf(idle, 0) {
				continue
			}
			if e := p.IdleEnergyJ(idle); math.IsNaN(e) || e < 0 {
				t.Fatalf("IdleEnergyJ(%g) = %v", idle, e)
			}
			if e := p.StandbyEnergyJ(idle); math.IsNaN(e) {
				t.Fatalf("StandbyEnergyJ(%g) = NaN", idle)
			}
			rpm, e := p.BestRPMForIdle(idle)
			if math.IsNaN(e) || p.LevelIndex(rpm) < 0 {
				t.Fatalf("BestRPMForIdle(%g) = (%d, %v)", idle, rpm, e)
			}
			rpm, e = p.BestRPMForTrailingIdle(idle)
			if math.IsNaN(e) || p.LevelIndex(rpm) < 0 {
				t.Fatalf("BestRPMForTrailingIdle(%g) = (%d, %v)", idle, rpm, e)
			}
			p.TrailingStandbyWins(idle)
		}
		if svc := p.ServiceTimeMS(p.MaxRPM, 65536); math.IsNaN(svc) || svc < 0 {
			t.Fatalf("ServiceTimeMS = %v", svc)
		}
	})
}

// FuzzBestRPM checks the decision rule against its Params references:
// for any Params that Validate accepts and any idle length, Decide must
// return Params.BestRPMForIdle's and BestRPMForTrailingIdle's rpm and
// energy bits for DRPM and the StandbyEnergyJ and TrailingStandbyWins
// choices for TPM, and OracleEnergyJ the least of them (checkDecide).
// Each input also probes both ends of every segment of the best-RPM
// breakpoint table and their float neighbours against the table's own
// scan, which is where a wrongly certified segment would show first.
func FuzzBestRPM(f *testing.F) {
	d := DefaultParams()
	seed := func(idle float64) {
		f.Add(d.MaxRPM, d.MinRPM, d.RPMStep, d.IdleW, d.ElectronicsW, d.SpindleExp, d.RPMStepTimeMS, idle)
	}
	for _, idle := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, 1e7} {
		seed(idle)
	}
	for _, r := range d.Levels() {
		bp := 2 * d.TransitionTimeMS(d.MaxRPM, r)
		seed(bp)
		seed(math.Nextafter(bp, 0))
		seed(math.Nextafter(bp, math.Inf(1)))
	}
	// Levels whose idle powers all round to the electronics floor
	// give identical dip lines: the table must leave them to the scan.
	f.Add(15000, 3000, 1200, 10.2, 2.0, 5000.0, 3.5, 40.0)
	// 1001 levels one rpm apart: lines cross at shallow angles.
	f.Add(15000, 14000, 1, 10.2, 0.0, 1.5, 1e-3, 0.5)
	// Transition energies that overflow to +Inf.
	f.Add(15000, 6000, 3000, 1e300, 0.0, 2.8, 1e200, 1e100)
	f.Fuzz(func(t *testing.T, maxRPM, minRPM, step int, idleW, elecW, spindleExp, stepMS, idle float64) {
		p := DefaultParams()
		p.MaxRPM, p.MinRPM, p.RPMStep = maxRPM, minRPM, step
		p.IdleW, p.ElectronicsW, p.SpindleExp, p.RPMStepTimeMS = idleW, elecW, spindleExp, stepMS
		p.ActiveW = math.Max(p.ActiveW, p.IdleW)
		p.StandbyW = math.Min(p.StandbyW, p.IdleW)
		if p.Validate() != nil {
			return
		}
		if p.NumLevels() > 1024 {
			t.Skip("level grid too large to sweep")
		}
		// newTable, not TableFor: fuzzed models must not fill the
		// process-wide memo.
		tbl := newTable(p)
		checkDecide(t, p, tbl, idle)
		for _, s := range tbl.best {
			for _, x := range []float64{s.lo, s.hi} {
				for _, x := range []float64{math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1))} {
					wantR, wantE := tbl.scanBest(x)
					gotR, gotE := tbl.bestRPM(x)
					if gotR != wantR {
						t.Fatalf("bestRPM(%v) rpm = %d, scan %d for %+v", x, gotR, wantR, p)
					}
					eq(t, "bestRPM energy at a segment end", wantE, gotE)
				}
			}
		}
	})
}
