// Package oracle provides the offline analyses that compare the
// compiler-managed schemes against the ideal (oracle) schemes, in
// particular the disk-speed misprediction rate of the paper's
// Table 3: for every idle period, the RPM level CMDRPM chose (from
// the compiler's predicted idle length) versus the level IDRPM would
// choose given the actual idle length observed in simulation.
package oracle

import (
	"fmt"

	"sdpm/internal/disk"
	"sdpm/internal/insert"
	"sdpm/internal/sim"
)

// MispredictStats summarizes the speed-misprediction analysis.
type MispredictStats struct {
	// TotalGaps is the number of idle periods compared.
	TotalGaps int
	// Mispredicted is the number whose planned level differs from
	// the oracle-optimal level.
	Mispredicted int
	// Pct is 100 * Mispredicted / TotalGaps.
	Pct float64
	// MeanAbsLevelError is the mean absolute distance, in RPM steps,
	// between the planned and optimal levels.
	MeanAbsLevelError float64
}

// Mispredictions compares a CMDRPM plan, the levels
// disk.Table.Decide chose for the predicted idle lengths, against the
// levels the same rule chooses for the actual idle periods recorded by
// a base simulation run: the levels IDRPM would choose. The base run
// must have been produced from the same request sites (same per-disk
// request sequence), so its idle-period lists align index-for-index
// with the plan's gaps.
func Mispredictions(plan *insert.Plan, baseIdles [][]sim.IdlePeriod, p disk.Params) (MispredictStats, error) {
	if plan.Mode != insert.ModeDRPM {
		return MispredictStats{}, fmt.Errorf("oracle: misprediction analysis applies to CMDRPM plans")
	}
	if len(baseIdles) != len(plan.Levels) {
		return MispredictStats{}, fmt.Errorf("oracle: %d disks in base run, %d in plan", len(baseIdles), len(plan.Levels))
	}
	var st MispredictStats
	var absErr int
	tbl := disk.TableFor(p)
	for d := range plan.Levels {
		if len(baseIdles[d]) != len(plan.Levels[d]) {
			return MispredictStats{}, fmt.Errorf("oracle: disk %d has %d actual idle periods, plan has %d",
				d, len(baseIdles[d]), len(plan.Levels[d]))
		}
		for g, planned := range plan.Levels[d] {
			trailing := g == len(plan.Levels[d])-1
			optimal, _ := tbl.Decide(disk.DRPM, baseIdles[d][g].LenMS, trailing)
			st.TotalGaps++
			if planned != optimal {
				st.Mispredicted++
				diff := (planned - optimal) / p.RPMStep
				if diff < 0 {
					diff = -diff
				}
				absErr += diff
			}
		}
	}
	if st.TotalGaps > 0 {
		st.Pct = 100 * float64(st.Mispredicted) / float64(st.TotalGaps)
		st.MeanAbsLevelError = float64(absErr) / float64(st.TotalGaps)
	}
	return st, nil
}
