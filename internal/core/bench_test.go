package core

import (
	"testing"

	"sdpm/internal/insert"
	"sdpm/internal/obs"
	"sdpm/internal/workloads"
)

// The compiler front half, layer by layer, over the six benchmarks
// (original code, default configuration): Prepare is placement plus
// the access walk through the buffer cache, Instrument the power-call
// insertion on the sites Prepare found.

func benchConfig(b *workloads.Benchmark) Config {
	cfg := DefaultConfig()
	cfg.Model = b.Model()
	cfg.CacheUnits = b.CacheUnits
	return cfg
}

// BenchmarkPrepare times Prepare of every benchmark.
func BenchmarkPrepare(b *testing.B) {
	ws := workloads.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			if _, err := Prepare(w.Name, w.Program, benchConfig(w), nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkInstrument times CMTPM and CMDRPM instrumentation of every
// benchmark; the preparation runs once, outside the timer.
func BenchmarkInstrument(b *testing.B) {
	var ins []*Instance
	for _, w := range workloads.All() {
		in, err := Prepare(w.Name, w.Program, benchConfig(w), nil)
		if err != nil {
			b.Fatal(err)
		}
		ins = append(ins, in)
	}
	for _, c := range []struct {
		name string
		mode insert.Mode
	}{{"TPM", insert.ModeTPM}, {"DRPM", insert.ModeDRPM}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, in := range ins {
					if _, _, err := insert.Instrument(in.Name, in.Cfg.NumDisks, in.Sites, insert.Options{
						Mode: c.mode, Disk: in.Cfg.Disk, Model: in.Cfg.model(),
						DisablePreactivation: in.Cfg.DisablePreactivation,
					}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkRunAllSchemes times the in-process work of one round of
// dpmd's cached /v1/sim requests: Run of every (benchmark, scheme)
// pair, 42 in all, with one metrics collector attached as dpmd
// attaches its own. Preparation, instrumentation and run-length
// compilation happen before the timer, in one warm-up round, so the
// loop times the simulator under every policy: IDRPM's oracle, the
// compiler's inserted power calls and the reactive controllers.
func BenchmarkRunAllSchemes(b *testing.B) {
	coll := obs.New()
	var ins []*Instance
	for _, w := range workloads.All() {
		in, err := Prepare(w.Name, w.Program, benchConfig(w), nil)
		if err != nil {
			b.Fatal(err)
		}
		in.Obs = coll
		ins = append(ins, in)
	}
	round := func() {
		for _, in := range ins {
			for _, s := range AllSchemes() {
				if _, err := in.Run(s); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
