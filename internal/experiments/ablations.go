package experiments

import (
	"fmt"

	"sdpm/internal/core"
	"sdpm/internal/sim"
	"sdpm/internal/stats"
	"sdpm/internal/workloads"
	"sdpm/internal/xform"
)

// selected returns the suite benchmarks passing the filter, keeping
// Table 2 order (the canonical row order of every ablation table).
func (s *Suite) selected(keep func(*workloads.Benchmark) bool) []*workloads.Benchmark {
	var out []*workloads.Benchmark
	for _, b := range s.Benchmarks {
		if keep(b) {
			out = append(out, b)
		}
	}
	return out
}

// AblationPreactivation quantifies the value of the pre-activation
// calls (Equation 1): CMDRPM energy and time with and without them,
// normalized to base. Without pre-activation, every access after a
// power-down pays the wake-up latency on demand.
func (s *Suite) AblationPreactivation() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Ablation: pre-activation (normalized energy | time)",
		Columns: []string{"CMDRPM-E", "CMDRPM-T", "noPre-E", "noPre-T"},
	}
	return withMean(s.benchTable(t, "preact", s.Benchmarks, 4, func(b *workloads.Benchmark, cfg core.Config) ([]float64, error) {
		_, r, err := s.run(b, cfg, core.Base, core.CMDRPM)
		if err != nil {
			return nil, err
		}
		cfg.DisablePreactivation = true
		_, rOff, err := s.run(b, cfg, core.CMDRPM)
		if err != nil {
			return nil, err
		}
		base, on, off := r[0], r[1], rOff[0]
		return []float64{
			on.EnergyJ / base.EnergyJ, on.ExecMS / base.ExecMS,
			off.EnergyJ / base.EnergyJ, off.ExecMS / base.ExecMS}, nil
	}))
}

// AblationNoise sweeps the cycle-estimation bias on mesa and reports
// the resulting misprediction rate and the CMDRPM energy and time
// (normalized) — the mechanism behind Table 3.
func (s *Suite) AblationNoise() (*stats.Table, error) {
	biasLevels := []float64{0, 10, 20, 40}
	b, err := s.bench("mesa")
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:     "Ablation: cycle-estimation bias vs misprediction (" + b.Name + ")",
		Columns:   []string{"mispredict%", "CMDRPM-E", "CMDRPM-T"},
		Precision: 3,
	}
	rows, err := s.grid("noise", len(biasLevels), 3, func(i int) (core.Config, []string, func() ([]float64, error)) {
		cfg := s.configFor(b)
		m := b.Model()
		m.BiasPct = biasLevels[i]
		cfg.Model = m
		return cfg, []string{b.Name}, func() ([]float64, error) {
			in, r, err := s.run(b, cfg, core.Base, core.CMDRPM)
			if err != nil {
				return nil, err
			}
			st, err := in.Mispredictions()
			if err != nil {
				return nil, err
			}
			base, cm := r[0], r[1]
			return []float64{st.Pct, cm.EnergyJ / base.EnergyJ, cm.ExecMS / base.ExecMS}, nil
		}
	})
	if err != nil {
		return nil, err
	}
	for i, bias := range biasLevels {
		t.Add(fmt.Sprintf("bias %g%%", bias), rows[i]...)
	}
	return t, nil
}

// AblationCache compares request counts and base energy with and
// without the buffer cache; without it every stripe-unit touch
// becomes a disk request.
func (s *Suite) AblationCache() (*stats.Table, error) {
	t := &stats.Table{
		Title:     "Ablation: buffer cache (requests and base energy)",
		Columns:   []string{"reqs", "reqs-nocache", "E", "E-nocache"},
		Precision: 0,
	}
	// The cacheless traces of the two largest workloads are enormous;
	// the remaining benchmarks demonstrate the effect.
	benches := s.selected(func(b *workloads.Benchmark) bool {
		return b.Name != "wupwise" && b.Name != "mgrid"
	})
	return s.benchTable(t, "cache", benches, 4, func(b *workloads.Benchmark, cfg core.Config) ([]float64, error) {
		in, res, err := s.run(b, cfg, core.Base)
		if err != nil {
			return nil, err
		}
		cfg.NoCache = true
		inNC, resNC, err := s.run(b, cfg, core.Base)
		if err != nil {
			return nil, err
		}
		return []float64{float64(len(in.Sites)), float64(len(inNC.Sites)), res[0].EnergyJ, resNC[0].EnergyJ}, nil
	})
}

// AblationClustering isolates the nest-clustering step of LF+DL:
// fission plus proportional disk allocation, with and without
// reordering the fissioned nests by array group.
func (s *Suite) AblationClustering() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Ablation: LF+DL nest clustering (normalized CMDRPM energy)",
		Columns: []string{"LF+DL", "LF+DL-nocluster"},
	}
	benches := s.selected(func(b *workloads.Benchmark) bool { return b.Fissionable })
	return withMean(s.benchTable(t, "clustering", benches, 2, func(b *workloads.Benchmark, cfg core.Config) ([]float64, error) {
		_, base, err := s.run(b, cfg, core.Base)
		if err != nil {
			return nil, err
		}
		with, err := s.lfdlEnergy(b, cfg, true)
		if err != nil {
			return nil, err
		}
		without, err := s.lfdlEnergy(b, cfg, false)
		if err != nil {
			return nil, err
		}
		return []float64{with / base[0].EnergyJ, without / base[0].EnergyJ}, nil
	}))
}

// lfdlEnergy runs CMDRPM on the LF+DL version of a benchmark,
// optionally skipping the clustering step, and leaves the run
// unobserved. The clustered program is the LF+DL version itself, so
// that run takes the memoized version (PrepareVersionUnobserved);
// the unclustered program is built fresh on every call, so its
// preparation goes straight to core.Prepare rather than through the
// memo (a fresh program pointer can never hit), and so does the
// clustered one when the compiler declines the version.
func (s *Suite) lfdlEnergy(b *workloads.Benchmark, cfg core.Config, cluster bool) (float64, error) {
	var in *core.Instance
	if cluster {
		vin, applied, err := s.memo().PrepareVersionUnobserved(b.Name, b.Program, core.VLFDL, cfg)
		if err != nil {
			return 0, err
		}
		if applied {
			in = vin
		}
	}
	if in == nil {
		fp := xform.Fission(b.Program)
		if cluster {
			fp = xform.ClusterByGroup(fp)
		}
		groups := xform.ArrayGroups(fp)
		st, err := xform.AssignGroupDisks(groups, cfg.NumDisks, cfg.UnitBytes)
		if err != nil {
			return 0, err
		}
		if in, err = core.Prepare(b.Name+"/lfdl", fp, cfg, st); err != nil {
			return 0, err
		}
	}
	res, err := s.simulate(in, core.CMDRPM)
	if err != nil {
		return 0, err
	}
	return res.EnergyJ, nil
}

// AblationOpenLoop contrasts the closed-loop execution model (request
// n+1 issues after request n completes — the paper's setting, where
// power-management delays stretch the application) with classical
// open-loop trace replay, under the reactive and oracle DRPM schemes.
func (s *Suite) AblationOpenLoop() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Ablation: closed vs open loop (normalized energy | time)",
		Columns: []string{"DRPM-E", "DRPM-T", "openDRPM-E", "openDRPM-T", "openIDRPM-E"},
	}
	benches := s.selected(func(b *workloads.Benchmark) bool {
		return b.Name != "wupwise" && b.Name != "mgrid" // keep the ablation quick; the others suffice
	})
	return withMean(s.benchTable(t, "openloop", benches, 5, func(b *workloads.Benchmark, cfg core.Config) ([]float64, error) {
		in, err := s.prepare(b, cfg)
		if err != nil {
			return nil, err
		}
		base, err := s.simulate(in, core.Base)
		if err != nil {
			return nil, err
		}
		openBase, err := in.RunOpen(core.Base)
		if err != nil {
			return nil, err
		}
		dr, err := s.simulate(in, core.DRPM)
		if err != nil {
			return nil, err
		}
		openDr, err := in.RunOpen(core.DRPM)
		if err != nil {
			return nil, err
		}
		openId, err := in.RunOpen(core.IDRPM)
		if err != nil {
			return nil, err
		}
		return []float64{
			dr.EnergyJ / base.EnergyJ, dr.ExecMS / base.ExecMS,
			openDr.EnergyJ / openBase.EnergyJ, openDr.ExecMS / openBase.ExecMS,
			openId.EnergyJ / openBase.EnergyJ}, nil
	}))
}

// AblationSeekModel contrasts the datasheet average-seek model with
// the distance-dependent square-root seek curve: the workloads'
// mostly-sequential accesses seek far less than average, so base
// energy and time drop.
func (s *Suite) AblationSeekModel() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Ablation: average vs distance-dependent seek (base runs)",
		Columns: []string{"E-avg", "E-dist", "T-avg", "T-dist"},
	}
	benches := s.selected(func(b *workloads.Benchmark) bool { return b.Name != "wupwise" })
	return s.benchTable(t, "seekmodel", benches, 4, func(b *workloads.Benchmark, cfg core.Config) ([]float64, error) {
		_, avg, err := s.run(b, cfg, core.Base)
		if err != nil {
			return nil, err
		}
		cfg.DistanceAwareSeek = true
		_, dist, err := s.run(b, cfg, core.Base)
		if err != nil {
			return nil, err
		}
		return []float64{avg[0].EnergyJ, dist[0].EnergyJ, avg[0].ExecMS, dist[0].ExecMS}, nil
	})
}

// EnergyBreakdown reports where each scheme's energy goes (active /
// idle-spinning / standby / transitions), per benchmark, for the base
// and compiler-managed DRPM schemes. It makes the proactive scheme's
// mechanism visible: base energy is almost entirely full-speed
// idling; CMDRPM converts most of it into low-RPM residency plus
// transition costs.
func (s *Suite) EnergyBreakdown() (*stats.Table, error) {
	t := &stats.Table{
		Title: "Energy breakdown (J): base vs CMDRPM",
		Columns: []string{
			"base-active", "base-idle",
			"cm-active", "cm-idle", "cm-trans", "cm-standby",
		},
		Precision: 1,
	}
	return s.benchTable(t, "breakdown", s.Benchmarks, 6, func(b *workloads.Benchmark, cfg core.Config) ([]float64, error) {
		_, r, err := s.run(b, cfg, core.Base, core.CMDRPM)
		if err != nil {
			return nil, err
		}
		sum := func(r *sim.Result) (a, i, tr, sb float64) {
			for _, st := range r.Disks {
				a += st.ActiveEnergyJ
				i += st.IdleEnergyJ
				tr += st.TransitionEnergyJ
				sb += st.StandbyEnergyJ
			}
			return
		}
		ba, bi, _, _ := sum(r[0])
		ca, ci, ct, cs := sum(r[1])
		return []float64{ba, bi, ca, ci, ct, cs}, nil
	})
}
