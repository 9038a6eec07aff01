package sim

import (
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
	e, err := newRun(tr, &cfg, true, false)
	if err != nil {
		return nil, err
	}
	// Requests are replayed in arrival order. Validate already
	// guarantees arrivals are non-decreasing in event order, so the
	// event walk below IS the arrival order — materializing and
	// stable-sorting an arrival queue (as earlier revisions did) was a
	// per-run allocation that could never change the order.
	m := e.m
	m.ReserveIdles(tr.PerDiskRequests())
	lastCompletion := make([]float64, tr.NumDisks)
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
			e.queueMS += issue - at
		}
		// Note: the machine may have accounted ahead of `issue` when a
		// policy scheduled an RPM shift that is still in progress; the
		// machine defers the service start in that case.
		if cfg.Policy != nil {
			cfg.Policy.BeforeService(m, d, issue)
		}
		compl, err := m.ServiceBlock(d, issue, req.Bytes, req.Block)
		if err != nil {
			return e.finish(err)
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
		if compl > e.clock {
			e.clock = compl
		}
	}
	return e.finish(nil)
}
