package experiments

import (
	"sdpm/internal/core"
	"sdpm/internal/faults"
	"sdpm/internal/stats"
	"sdpm/internal/workloads"
)

// FaultImpact runs every scheme on one benchmark at the named fault
// severities (off/light/moderate/heavy) and returns the energy and
// execution-time tables, both normalized to the fault-free Base run —
// so a cell reads directly as "this scheme under these faults, versus
// doing nothing on a healthy array". The benchmark runs in its LF+DL
// transformed version, where the compiler actually inserts spin-down/
// spin-up calls, so the sweep stresses all three fault models: spin-up
// failures stretch every pre-activated wake-up, bad sectors tax the
// seeks, and degradation windows invalidate the idle-window estimates
// behind the paper's fault-free savings.
//
// The fault schedule is derived from (seed, nDisks, severity) only,
// so one seed produces byte-identical tables at any worker count.
func (s *Suite) FaultImpact(benchName string, seed int64) (*stats.Table, *stats.Table, error) {
	b, err := s.bench(benchName)
	if err != nil {
		return nil, nil, err
	}
	severities := faults.PresetNames()
	return s.schemeGrid("faultimpact", severities, core.AllSchemes(), [2]string{
		"Fault impact: normalized energy (" + b.Name + " LF+DL, vs fault-free Base)",
		"Fault impact: normalized execution time (" + b.Name + " LF+DL, vs fault-free Base)",
	}, true, func(b *workloads.Benchmark, cfg core.Config) (*core.Instance, error) {
		in, _, err := s.memo().PrepareVersion(b.Name, b.Program, core.VLFDL, cfg)
		return in, err
	}, func(i int) (*workloads.Benchmark, core.Config, []string) {
		cfg := s.configFor(b)
		cfg.Faults, _ = faults.Preset(severities[i])
		cfg.FaultSeed = seed
		return b, cfg, []string{b.Name, severities[i]}
	})
}
