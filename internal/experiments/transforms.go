package experiments

import (
	"fmt"
	"strings"

	"sdpm/internal/core"
	"sdpm/internal/sim"
	"sdpm/internal/stats"
	"sdpm/internal/trace"
	"sdpm/internal/workloads"
)

// figure13Schemes are the compiler-managed schemes Figure 13
// combines with the code versions.
var figure13Schemes = []core.Scheme{core.CMTPM, core.CMDRPM}

// Figure13 evaluates the code/layout versions of Section 6 under the
// compiler-managed schemes, normalized to the original base version.
// Rows are benchmarks; columns are version/scheme combinations. A
// version that does not apply to a benchmark (no fissionable nest,
// conforming layouts) reuses the original program, exactly as the
// paper's compiler would leave the code unchanged.
//
// Each (benchmark, version, scheme) run is one worker cell — the base
// denominator is one more cell per benchmark — and the normalization
// happens after the fan-out, in canonical order.
func (s *Suite) Figure13() (*stats.Table, error) {
	versions := core.AllVersions()
	var cols []string
	for _, v := range versions {
		for _, sc := range figure13Schemes {
			cols = append(cols, fmt.Sprintf("%s/%s", v, sc))
		}
	}
	t := &stats.Table{
		Title:   "Figure 13: Normalized energy consumption with code transformations",
		Columns: cols,
	}
	// Per benchmark: cell 0 is the base denominator, then one cell per
	// version/scheme pair.
	perB := 1 + len(cols)
	energies, err := s.grid("figure13", len(s.Benchmarks)*perB, 1, func(i int) (core.Config, []string, func() ([]float64, error)) {
		b, j := s.Benchmarks[i/perB], i%perB
		cfg := s.configFor(b)
		if j == 0 {
			return cfg, []string{b.Name, "base"}, func() ([]float64, error) {
				_, r, err := s.run(b, cfg, core.Base)
				if err != nil {
					return nil, err
				}
				return []float64{r[0].EnergyJ}, nil
			}
		}
		v := versions[(j-1)/len(figure13Schemes)]
		sc := figure13Schemes[(j-1)%len(figure13Schemes)]
		return cfg, []string{b.Name, string(v), string(sc)}, func() ([]float64, error) {
			in, _, err := s.memo().PrepareVersion(b.Name, b.Program, v, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", b.Name, v, err)
			}
			res, err := s.simulate(in, sc)
			if err != nil {
				return nil, fmt.Errorf("%s/%s/%s: %w", b.Name, v, sc, err)
			}
			return []float64{res.EnergyJ}, nil
		}
	})
	if err != nil {
		return nil, err
	}
	for bi, b := range s.Benchmarks {
		base := energies[bi*perB][0]
		vals := make([]float64, 0, perB-1)
		for _, e := range energies[bi*perB+1 : (bi+1)*perB] {
			vals = append(vals, e[0]/base)
		}
		t.Add(b.Name, vals...)
	}
	return t.WithMeanRow(), nil
}

// ExtensionInterchange evaluates the loop-interchange extension (a
// transformation beyond the paper's LF/TL pair) against TL+DL on the
// layout-nonconforming benchmarks: interchange fixes the iteration
// order without touching any layout, and should recover most of
// TL+DL's benefit on codes whose only problem is a transposed
// traversal.
func (s *Suite) ExtensionInterchange() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Extension: loop interchange vs TL+DL (normalized CMDRPM energy)",
		Columns: []string{"orig", "IC", "TL+DL", "IC-requests", "orig-requests"},
	}
	return s.benchTable(t, "interchange", s.Benchmarks, 5, func(b *workloads.Benchmark, cfg core.Config) ([]float64, error) {
		orig, base, err := s.run(b, cfg, core.Base)
		if err != nil {
			return nil, err
		}
		var vals []float64
		var icReqs float64
		for _, v := range []core.Version{core.VOrig, core.VIC, core.VTLDL} {
			in, _, err := s.memo().PrepareVersion(b.Name, b.Program, v, cfg)
			if err != nil {
				return nil, err
			}
			res, err := s.simulate(in, core.CMDRPM)
			if err != nil {
				return nil, err
			}
			vals = append(vals, res.EnergyJ/base[0].EnergyJ)
			if v == core.VIC {
				icReqs = float64(len(in.Sites))
			}
		}
		return append(vals, icReqs, float64(len(orig.Sites))), nil
	})
}

// ExtensionMultiprogram evaluates the server scenario the paper sets
// aside (its single-program evaluation is why it shrinks the DRPM
// window to 30): several benchmarks run concurrently against one
// shared subsystem, replayed open-loop, under the reactive and
// oracle DRPM schemes. Multiprogramming compresses each disk's idle
// periods, so both schemes save less than they do on dedicated
// subsystems.
func (s *Suite) ExtensionMultiprogram() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Extension: multiprogrammed (shared-subsystem) workloads, open-loop",
		Columns: []string{"DRPM-E", "IDRPM-E", "DRPM-T"},
	}
	combos := [][]string{
		{"swim"},
		{"swim", "galgel"},
		{"swim", "galgel", "mesa"},
	}
	// A journal cell encodes the row as [ok, DRPM-E, IDRPM-E, DRPM-T]:
	// the leading flag distinguishes "combo skipped, benchmark missing"
	// from a computed row, so a resumed run skips the same rows.
	rows, err := s.grid("multiprog", len(combos), 4, func(ci int) (core.Config, []string, func() ([]float64, error)) {
		return s.Cfg, []string{strings.Join(combos[ci], "+")}, func() ([]float64, error) {
			var traces []*trace.Trace
			for _, name := range combos[ci] {
				b, err := s.bench(name)
				if err != nil {
					return []float64{0, 0, 0, 0}, nil // combo needs a benchmark the suite lacks; skip the row
				}
				in, err := s.prepare(b, s.configFor(b))
				if err != nil {
					return nil, err
				}
				traces = append(traces, in.BaseTrace())
			}
			merged, err := trace.MergeOpen(s.Cfg.NumDisks, traces...)
			if err != nil {
				return nil, err
			}
			var r [3]*sim.Result
			for i, sc := range []core.Scheme{core.Base, core.DRPM, core.IDRPM} {
				pol, _ := sc.Policy(s.Cfg.Disk)
				if r[i], err = sim.RunOpenLoop(merged, sim.Config{Disk: s.Cfg.Disk, Policy: pol}); err != nil {
					return nil, err
				}
			}
			base, dr, id := r[0], r[1], r[2]
			return []float64{1,
				dr.EnergyJ / base.EnergyJ, id.EnergyJ / base.EnergyJ, dr.ExecMS / base.ExecMS}, nil
		}
	})
	if err != nil {
		return nil, err
	}
	for ci, r := range rows {
		if r[0] != 0 {
			t.Add(strings.Join(combos[ci], "+"), r[1:]...)
		}
	}
	return t, nil
}

// VersionApplicability reports which versions applied to which
// benchmarks (1 = transformed, 0 = compiler left the code unchanged),
// documenting the paper's structural claims (wupwise/galgel not
// fissionable; galgel conforming, etc.).
func (s *Suite) VersionApplicability() (*stats.Table, error) {
	versions := core.AllVersions()[1:]
	var cols []string
	for _, v := range versions {
		cols = append(cols, string(v))
	}
	t := &stats.Table{
		Title:     "Transformation applicability (1 = applied)",
		Columns:   cols,
		Precision: 0,
	}
	nv := len(versions)
	cells, err := s.grid("applicability", len(s.Benchmarks)*nv, 1, func(i int) (core.Config, []string, func() ([]float64, error)) {
		b, v := s.Benchmarks[i/nv], versions[i%nv]
		cfg := s.configFor(b)
		return cfg, []string{b.Name, string(v)}, func() ([]float64, error) {
			_, applied, err := s.memo().PrepareVersion(b.Name, b.Program, v, cfg)
			if err != nil {
				return nil, err
			}
			if applied {
				return []float64{1}, nil
			}
			return []float64{0}, nil
		}
	})
	if err != nil {
		return nil, err
	}
	for bi, b := range s.Benchmarks {
		row := make([]float64, nv)
		for j, c := range cells[bi*nv : (bi+1)*nv] {
			row[j] = c[0]
		}
		t.Add(b.Name, row...)
	}
	return t, nil
}
