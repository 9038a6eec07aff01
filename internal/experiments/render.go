package experiments

import (
	"fmt"
	"io"
	"log/slog"
	"slices"
	"sort"

	"sdpm/internal/stats"
)

// experiment is one registry entry: an id and how a suite builds it.
// Table 1 is preformatted text; every other experiment is a table.
type experiment struct {
	id    string
	text  func(*Suite) string
	table func(*Suite) (*stats.Table, error)
}

// registry lists every experiment, in the paper's order.
var registry = []experiment{
	{id: "table1", text: (*Suite).Table1},
	{id: "table2", table: (*Suite).Table2},
	{id: "fig3", table: half(0, (*Suite).Figures34)},
	{id: "fig4", table: half(1, (*Suite).Figures34)},
	{id: "table3", table: (*Suite).Table3},
	{id: "fig5", table: half(0, func(s *Suite) (*stats.Table, *stats.Table, error) { return s.Figures56(nil) })},
	{id: "fig6", table: half(1, func(s *Suite) (*stats.Table, *stats.Table, error) { return s.Figures56(nil) })},
	{id: "fig7", table: half(0, func(s *Suite) (*stats.Table, *stats.Table, error) { return s.Figures78(nil) })},
	{id: "fig8", table: half(1, func(s *Suite) (*stats.Table, *stats.Table, error) { return s.Figures78(nil) })},
	{id: "fig13", table: (*Suite).Figure13},
	{id: "applicability", table: (*Suite).VersionApplicability},
	{id: "ext-interchange", table: (*Suite).ExtensionInterchange},
	{id: "ext-multiprogram", table: (*Suite).ExtensionMultiprogram},
	{id: "ablation-preactivation", table: (*Suite).AblationPreactivation},
	{id: "ablation-noise", table: func(s *Suite) (*stats.Table, error) { return s.AblationNoise("mesa", nil) }},
	{id: "ablation-cache", table: (*Suite).AblationCache},
	{id: "ablation-clustering", table: (*Suite).AblationClustering},
	{id: "ablation-openloop", table: (*Suite).AblationOpenLoop},
	{id: "ablation-seek", table: (*Suite).AblationSeekModel},
	{id: "breakdown", table: (*Suite).EnergyBreakdown},
	{id: "faults-energy", table: half(0, func(s *Suite) (*stats.Table, *stats.Table, error) { return s.FaultImpact("swim", s.FaultSeed) })},
	{id: "faults-time", table: half(1, func(s *Suite) (*stats.Table, *stats.Table, error) { return s.FaultImpact("swim", s.FaultSeed) })},
}

// half builds a two-table experiment and keeps table i (0 or 1).
func half(i int, build func(*Suite) (*stats.Table, *stats.Table, error)) func(*Suite) (*stats.Table, error) {
	return func(s *Suite) (*stats.Table, error) {
		a, b, err := build(s)
		return [2]*stats.Table{a, b}[i], err
	}
}

// IDs returns the experiment identifiers accepted by Render, in the
// paper's order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// Render regenerates one experiment id on a prepared suite and
// renders it to out as "text" (aligned tables) or "csv". It is the
// single dispatch point shared by the sdpm library entry points and
// the serving layer; the id "all" is the caller's concern (loop over
// IDs) so that per-experiment cancellation points stay visible.
func Render(s *Suite, id string, out io.Writer, format string) error {
	i := slices.IndexFunc(registry, func(e experiment) bool { return e.id == id })
	if i < 0 {
		ids := append([]string{"all"}, IDs()...)
		sort.Strings(ids)
		return fmt.Errorf("sdpm: unknown experiment %q (have %v)", id, ids)
	}
	e := registry[i]
	slog.Debug("experiment start", "id", id, "workers", s.Workers)
	if e.text != nil {
		_, err := io.WriteString(out, e.text(s))
		return err
	}
	table, err := e.table(s)
	if err != nil {
		return err
	}
	slog.Debug("experiment done", "id", id)
	if format == "csv" {
		return table.RenderCSV(out)
	}
	table.Render(out)
	return nil
}
