package events

// Aggregation helpers for the dpmquery CLI, their only caller. All
// helpers are pure functions over decoded event slices, so they work
// identically on a live log's Events() copy and on a JSONL file read
// back from disk.

import "sort"

// RegretGroup aggregates decision outcomes per (policy, disk).
type RegretGroup struct {
	Policy     string
	Disk       int
	Decisions  int     // decision events in the group
	Attributed int     // decisions carrying a period attribution
	ActualJ    float64 // summed measured energy of attributed periods
	OracleJ    float64 // summed oracle minima
	RegretJ    float64 // ActualJ - OracleJ
}

// AggregateRegret groups decision events by (policy, disk) and sums
// their energy attributions, sorted by descending regret (ties broken
// by policy then disk for determinism).
func AggregateRegret(evs []Event) []RegretGroup {
	type key struct {
		policy string
		disk   int
	}
	groups := make(map[key]*RegretGroup)
	for i := range evs {
		e := &evs[i]
		if !IsDecision(e.Kind) {
			continue
		}
		k := key{e.Policy, e.Disk}
		g := groups[k]
		if g == nil {
			g = &RegretGroup{Policy: e.Policy, Disk: e.Disk}
			groups[k] = g
		}
		g.Decisions++
		if e.ActualJ != 0 || e.OracleJ != 0 {
			g.Attributed++
			g.ActualJ += e.ActualJ
			g.OracleJ += e.OracleJ
			g.RegretJ += e.RegretJ
		}
	}
	out := make([]RegretGroup, 0, len(groups))
	for _, g := range groups {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RegretJ != out[j].RegretJ {
			return out[i].RegretJ > out[j].RegretJ
		}
		if out[i].Policy != out[j].Policy {
			return out[i].Policy < out[j].Policy
		}
		return out[i].Disk < out[j].Disk
	})
	return out
}

// TopRegret returns the n decision events with the largest regret, in
// descending regret order (ties broken by seq for determinism).
func TopRegret(evs []Event, n int) []Event {
	var dec []Event
	for i := range evs {
		if IsDecision(evs[i].Kind) {
			dec = append(dec, evs[i])
		}
	}
	sort.Slice(dec, func(i, j int) bool {
		if dec[i].RegretJ != dec[j].RegretJ {
			return dec[i].RegretJ > dec[j].RegretJ
		}
		return dec[i].Seq < dec[j].Seq
	})
	if n >= 0 && len(dec) > n {
		dec = dec[:n]
	}
	return dec
}

// MissCounts tallies spinup_miss events by flavor: ondemand (the
// request paid the full spin-up) and inflight (a spin-up was already
// underway but finished too late). These match the metrics
// collector's sdpm_spinup_mispredictions_total counters one for one.
func MissCounts(evs []Event) (ondemand, inflight int) {
	for i := range evs {
		if evs[i].Kind != KindSpinupMiss {
			continue
		}
		switch evs[i].Detail {
		case "ondemand":
			ondemand++
		case "inflight":
			inflight++
		}
	}
	return ondemand, inflight
}

// CountByDetail tallies events of one kind by their Detail string.
func CountByDetail(evs []Event, kind string) map[string]int {
	out := make(map[string]int)
	for i := range evs {
		if evs[i].Kind == kind {
			out[evs[i].Detail]++
		}
	}
	return out
}

// CountByKind tallies all events by kind.
func CountByKind(evs []Event) map[string]int {
	out := make(map[string]int)
	for i := range evs {
		out[evs[i].Kind]++
	}
	return out
}

// Filter returns the events matching every non-zero criterion:
// kind and policy match exactly when non-empty; disk matches exactly
// when >= 0.
func Filter(evs []Event, kind, policy string, disk int) []Event {
	var out []Event
	for i := range evs {
		e := &evs[i]
		if kind != "" && e.Kind != kind {
			continue
		}
		if policy != "" && e.Policy != policy {
			continue
		}
		if disk >= 0 && e.Disk != disk {
			continue
		}
		out = append(out, *e)
	}
	return out
}
