package disk

import (
	"math"
	"strings"
	"testing"
)

// TestValidateRejectsNonFinite: every float knob must reject NaN and
// both infinities — ordered comparisons alone let NaN through.
func TestValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Params, float64)
	}{
		{"CapacityGB", func(p *Params, v float64) { p.CapacityGB = v }},
		{"AvgSeekMS", func(p *Params, v float64) { p.AvgSeekMS = v }},
		{"SeekMinMS", func(p *Params, v float64) { p.SeekMinMS = v }},
		{"SeekMaxMS", func(p *Params, v float64) { p.SeekMaxMS = v }},
		{"AvgRotMS", func(p *Params, v float64) { p.AvgRotMS = v }},
		{"TransferMBps", func(p *Params, v float64) { p.TransferMBps = v }},
		{"ActiveW", func(p *Params, v float64) { p.ActiveW = v }},
		{"IdleW", func(p *Params, v float64) { p.IdleW = v }},
		{"StandbyW", func(p *Params, v float64) { p.StandbyW = v }},
		{"SpinDownJ", func(p *Params, v float64) { p.SpinDownJ = v }},
		{"SpinDownMS", func(p *Params, v float64) { p.SpinDownMS = v }},
		{"SpinUpJ", func(p *Params, v float64) { p.SpinUpJ = v }},
		{"SpinUpMS", func(p *Params, v float64) { p.SpinUpMS = v }},
		{"RPMStepTimeMS", func(p *Params, v float64) { p.RPMStepTimeMS = v }},
		{"LowerTolerancePct", func(p *Params, v float64) { p.LowerTolerancePct = v }},
		{"UpperTolerancePct", func(p *Params, v float64) { p.UpperTolerancePct = v }},
		{"ElectronicsW", func(p *Params, v float64) { p.ElectronicsW = v }},
		{"SpindleExp", func(p *Params, v float64) { p.SpindleExp = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := DefaultParams()
			f.set(&p, v)
			err := p.Validate()
			if err == nil {
				t.Errorf("%s = %v accepted", f.name, v)
				continue
			}
			if !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %v: error %q does not name the field", f.name, v, err)
			}
		}
	}
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}
