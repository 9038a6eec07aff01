package sim

import (
	"fmt"

	"sdpm/internal/obs"
	"sdpm/internal/obs/events"
	"sdpm/internal/trace"
)

// RunOpenLoop replays a trace in open-loop mode: requests are issued
// at their nominal arrival times regardless of earlier completions,
// queueing FIFO per disk when the disk is busy — the classical
// DiskSim-style replay, in contrast to Run's closed-loop execution
// where power-management delays stretch the application.
//
// Open-loop replay cannot honor the trace's embedded power ops (their
// positions are program-order, not wall-clock), so it supports only
// policy-driven schemes; traces containing power ops are replayed
// with the ops dropped.
//
// The result's ExecMS is the last completion time; TotalWaitMS
// aggregates queueing plus readiness delays (completion - arrival -
// service).
func RunOpenLoop(tr *trace.Trace, cfg Config) (*Result, error) {
	if err := cfg.Disk.Validate(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	// Requests are replayed in arrival order. Validate already
	// guarantees arrivals are non-decreasing in event order, so the
	// event walk below IS the arrival order — materializing and
	// stable-sorting an arrival queue (as earlier revisions did) was a
	// per-run allocation that could never change the order.
	perDisk := make([]int, tr.NumDisks)
	for i := range tr.Events {
		if tr.Events[i].Kind == trace.EvRequest {
			perDisk[tr.Events[i].Req.Disk]++
		}
	}
	m := NewMachine(tr.NumDisks, cfg.Disk)
	if cfg.DistanceAwareSeek {
		m.EnableDistanceSeek(cfg.Disk.CapacityBlocks())
	}
	if cfg.RecordTimeline || cfg.Audit {
		m.EnableTimeline()
	}
	if cfg.Obs != nil {
		cfg.Obs.Add(obs.SimRuns, 1)
		cfg.Obs.EnsureDisks(tr.NumDisks, cfg.Disk.MinRPM, cfg.Disk.RPMStep, cfg.Disk.NumLevels())
		m.AttachCollector(cfg.Obs)
	}
	if cfg.Faults != nil {
		if cfg.Faults.NumDisks() < tr.NumDisks {
			return nil, fmt.Errorf("sim: fault plan covers %d disks, trace uses %d", cfg.Faults.NumDisks(), tr.NumDisks)
		}
		m.AttachFaults(cfg.Faults)
	}
	if cfg.Events != nil {
		label := cfg.SchemeLabel
		if label == "" {
			if cfg.Policy != nil {
				label = cfg.Policy.Name() + "/open"
			} else {
				label = "embedded/open"
			}
		}
		polTrig := ""
		if tp, ok := cfg.Policy.(TriggerPolicy); ok {
			polTrig = tp.DecisionTrigger()
		} else if cfg.Policy != nil {
			polTrig = "policy"
		}
		m.AttachEvents(cfg.Events, tr.Program, label, polTrig, cfg.Disk.TPMBreakEvenMS())
	}
	m.ReserveIdles(perDisk)
	lastCompletion := make([]float64, tr.NumDisks)
	end := 0.0
	queueMS := 0.0
	for i := range tr.Events {
		if tr.Events[i].Kind != trace.EvRequest {
			continue
		}
		req := &tr.Events[i].Req
		d := req.Disk
		at := req.ArrivalMS
		issue := at
		if lastCompletion[d] > issue {
			// FIFO queueing behind the previous request on this disk.
			issue = lastCompletion[d]
			queueMS += issue - at
		}
		// Note: the machine may have accounted ahead of `issue` when a
		// policy scheduled an RPM shift that is still in progress; the
		// machine defers the service start in that case.
		if cfg.Policy != nil {
			cfg.Policy.BeforeService(m, d, issue)
		}
		compl, err := m.ServiceBlock(d, issue, req.Bytes, req.Block)
		if err != nil {
			return nil, err
		}
		if cfg.Policy != nil {
			if m.ev != nil {
				m.setTrigger(events.TrigController, 0)
				cfg.Policy.AfterService(m, d, compl, compl-at)
				m.restoreTrigger()
			} else {
				cfg.Policy.AfterService(m, d, compl, compl-at)
			}
		}
		lastCompletion[d] = compl
		if compl > end {
			end = compl
		}
	}
	if cfg.Policy != nil {
		if m.ev != nil {
			m.setTrigger(events.TrigFinish, 0)
			cfg.Policy.Finish(m, end)
			m.restoreTrigger()
		} else {
			cfg.Policy.Finish(m, end)
		}
	}
	stats, idles := m.Finish(end)
	res := &Result{Program: tr.Program, ExecMS: end, Disks: stats, Idles: idles}
	if cfg.RecordTimeline || cfg.Audit {
		res.Timelines = m.Timelines()
	}
	if cfg.Policy != nil {
		res.Scheme = cfg.Policy.Name() + "/open"
	} else {
		res.Scheme = "embedded/open"
	}
	for d := range stats {
		res.EnergyJ += stats[d].EnergyJ
		res.Requests += stats[d].Requests
		res.TotalWaitMS += stats[d].WaitMS
	}
	// Readiness waits (from the machine) plus FIFO queueing delays.
	res.TotalWaitMS += queueMS
	if cfg.Audit {
		if aerr := Audit(res, cfg.Disk, cfg.Faults != nil); aerr != nil {
			return nil, aerr
		}
		if !cfg.RecordTimeline {
			res.Timelines = nil
		}
	}
	return res, nil
}
