package experiments

import (
	"fmt"

	"sdpm/internal/core"
	"sdpm/internal/stats"
	"sdpm/internal/workloads"
)

// sensitivitySchemes are the schemes the sensitivity figures track.
var sensitivitySchemes = []core.Scheme{core.DRPM, core.IDRPM, core.CMDRPM}

// sweep runs swim, the paper's sensitivity benchmark, under one
// configuration variant per label — every scheme at a point sharing
// the point's prepared instance through the memo — and returns the
// energy and execution-time tables (rows: points; cols: Base +
// sensitivitySchemes), normalized to the base scheme at each point.
func (s *Suite) sweep(labels []string, titles [2]string, vary func(cfg *core.Config, point int)) (*stats.Table, *stats.Table, error) {
	b, err := s.bench("swim")
	if err != nil {
		return nil, nil, err
	}
	schemes := append([]core.Scheme{core.Base}, sensitivitySchemes...)
	return s.schemeGrid("sweep", labels, schemes, titles, false, s.prepare,
		func(p int) (*workloads.Benchmark, core.Config, []string) {
			cfg := s.configFor(b)
			vary(&cfg, p)
			return b, cfg, []string{b.Name, labels[p]}
		})
}

// Figures56 computes Figures 5 and 6: swim's normalized energy and
// execution time across stripe sizes (normalized to the base scheme
// at each size).
func (s *Suite) Figures56() (*stats.Table, *stats.Table, error) {
	sizes := []int64{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10}
	labels := make([]string, len(sizes))
	for i, size := range sizes {
		labels[i] = fmt.Sprintf("%dKB", size/1024)
	}
	return s.sweep(labels, [2]string{
		"Figure 5: Energy consumption with different stripe sizes (swim)",
		"Figure 6: Execution time with different stripe sizes (swim)",
	}, func(cfg *core.Config, p int) { cfg.UnitBytes = sizes[p] })
}

// Figures78 computes Figures 7 and 8: swim's normalized energy and
// execution time across stripe factors (= subsystem sizes).
func (s *Suite) Figures78() (*stats.Table, *stats.Table, error) {
	factors := []int{2, 4, 8, 12, 16}
	labels := make([]string, len(factors))
	for i, f := range factors {
		labels[i] = fmt.Sprintf("%d disks", f)
	}
	return s.sweep(labels, [2]string{
		"Figure 7: Energy consumption with different stripe factors (swim)",
		"Figure 8: Execution time with different stripe factors (swim)",
	}, func(cfg *core.Config, p int) { cfg.NumDisks = factors[p] })
}
