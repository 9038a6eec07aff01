package sim

import (
	"fmt"
	"io"

	"sdpm/internal/obs"
	"sdpm/internal/obs/events"
)

// ChromeTraceEvents converts a recorded run into Chrome trace-event /
// Perfetto JSON events. The run must have been executed with
// Config.RecordTimeline set; each disk becomes one thread (tid) of a
// single process named after the program and scheme. Every timeline
// segment becomes a complete span carrying its RPM and power draw,
// transition starts additionally emit instant power-op markers, and
// per-disk RPM and power counters track the spindle over time.
//
// The run's decision-provenance log, when non-nil, is merged in after
// the timeline: every logged decision, spin-up miss, fault, and
// batching bail-out becomes an instant event on its disk's track,
// carrying the provenance as args (trigger, predicted and measured
// idle, break-even, energy regret, fault detail). Suite-level events
// with no disk (worker-pool retries, journal lifecycle) are skipped —
// they have no place on a disk timeline.
func ChromeTraceEvents(res *Result, log []events.Event) ([]obs.TraceEvent, error) {
	if res.Timelines == nil {
		return nil, fmt.Errorf("sim: no timelines recorded; run with Config.RecordTimeline")
	}
	name := res.Program
	if res.Scheme != "" {
		name += "/" + res.Scheme
	}
	out := []obs.TraceEvent{{
		Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": name},
	}}
	for d := range res.Timelines {
		out = append(out, obs.TraceEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: d,
			Args: map[string]any{"name": fmt.Sprintf("disk%d", d)},
		})
	}
	for d, segs := range res.Timelines {
		for _, sg := range segs {
			label := sg.Stat.String()
			if sg.Active {
				label = "service"
			} else if sg.Stat == StSpinning {
				label = "idle"
			}
			ts, dur := sg.StartMS*1e3, (sg.EndMS-sg.StartMS)*1e3
			out = append(out, obs.TraceEvent{
				Name: label, Cat: "disk", Ph: "X", TS: ts, Dur: dur, Pid: 0, Tid: d,
				Args: map[string]any{"rpm": sg.RPM, "power_w": sg.PowerW},
			})
			if !sg.Active {
				// Transition segments mark where a power op took
				// effect; surface them as instant events so they are
				// findable in the Perfetto timeline.
				switch sg.Stat {
				case StDown:
					out = append(out, opInstant("spin_down", ts, d, 0))
				case StUp:
					out = append(out, opInstant("spin_up", ts, d, sg.RPM))
				case StShift:
					out = append(out, opInstant("set_rpm", ts, d, sg.RPM))
				}
			}
			out = append(out,
				obs.TraceEvent{Name: fmt.Sprintf("disk%d rpm", d), Ph: "C", TS: ts, Pid: 0, Tid: d,
					Args: map[string]any{"rpm": sg.RPM}},
				obs.TraceEvent{Name: fmt.Sprintf("disk%d power_w", d), Ph: "C", TS: ts, Pid: 0, Tid: d,
					Args: map[string]any{"w": sg.PowerW}},
			)
		}
	}
	for i := range log {
		ev := &log[i]
		if ev.Disk < 0 || ev.Disk >= len(res.Timelines) {
			continue
		}
		cat := "fault"
		if events.IsDecision(ev.Kind) {
			cat = "decision"
		} else if ev.Kind == events.KindSpinupMiss {
			cat = "miss"
		} else if ev.Kind == events.KindBailout {
			cat = "bailout"
		}
		args := map[string]any{}
		if ev.Policy != "" {
			args["policy"] = ev.Policy
		}
		if ev.Trigger != "" {
			args["trigger"] = ev.Trigger
		}
		if ev.TargetRPM != 0 {
			args["rpm"] = ev.TargetRPM
		}
		if ev.PredictedIdleMS != 0 {
			args["predicted_idle_ms"] = ev.PredictedIdleMS
		}
		if ev.BreakEvenMS != 0 {
			args["break_even_ms"] = ev.BreakEvenMS
		}
		if ev.MeasuredIdleMS != 0 {
			args["measured_idle_ms"] = ev.MeasuredIdleMS
		}
		if ev.ActualJ != 0 {
			args["actual_j"] = ev.ActualJ
		}
		if ev.OracleJ != 0 {
			args["oracle_j"] = ev.OracleJ
		}
		if ev.RegretJ != 0 {
			args["regret_j"] = ev.RegretJ
		}
		if ev.Detail != "" {
			args["detail"] = ev.Detail
		}
		if len(args) == 0 {
			args = nil
		}
		out = append(out, obs.TraceEvent{
			Name: ev.Kind, Cat: cat, Ph: "i", TS: ev.TMS * 1e3,
			Pid: 0, Tid: ev.Disk, S: "t", Args: args,
		})
	}
	return out, nil
}

func opInstant(name string, ts float64, d, rpm int) obs.TraceEvent {
	ev := obs.TraceEvent{Name: name, Cat: "powerop", Ph: "i", TS: ts, Pid: 0, Tid: d, S: "t"}
	if rpm > 0 {
		ev.Args = map[string]any{"rpm": rpm}
	}
	return ev
}

// WriteChromeTrace writes the run's recorded timelines, with the
// log's events merged in when it is non-nil, as a Chrome trace-event
// JSON file that loads in Perfetto (ui.perfetto.dev) or
// chrome://tracing. See ChromeTraceEvents for the event model.
func WriteChromeTrace(w io.Writer, res *Result, log []events.Event) error {
	evs, err := ChromeTraceEvents(res, log)
	if err != nil {
		return err
	}
	return obs.WriteChromeTrace(w, evs)
}
