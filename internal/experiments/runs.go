package experiments

import (
	"sync"

	"sdpm/internal/core"
	"sdpm/internal/sim"
	"sdpm/internal/trace"
)

// runMemo answers the closed-loop runs an unobserved suite repeats.
// Several experiments report one set of simulations: Figures 3 and 4
// are the energy and the time of the same runs, as are Figures 5/6
// and 7/8 and the two fault tables, and the base runs, the code
// versions that leave a program unchanged and the LF+DL runs recur
// across experiments. A run reads nothing but its key, so the first
// lookup of a key simulates and every later one shares the result.
//
// The memo lives and dies with its suite. It is not part of
// core.Cache: dpmd shares that cache across requests, and a result
// memo there would be keyed by the fault seed each client picks, a
// table with no bound.
type runMemo struct {
	mu   sync.Mutex
	runs map[runKey]*runEntry
	// lookups counts every lookup and sims the runs the memo started,
	// failed ones included.
	lookups, sims int
}

// runKey is what a closed-loop run reads: the trace's events, by
// their first element and length (the identity trace.Compiled.For
// checks; first, held by the key, pins the events so their address
// cannot be reused while the memo lives), the scheme, the
// configuration's fingerprint, and Audit, which the fingerprint
// leaves out but which makes a result carry its idle periods.
type runKey struct {
	first  *trace.Event
	n      int
	scheme core.Scheme
	cfg    string
	audit  bool
}

type runEntry struct {
	done chan struct{} // closed when the run has ended
	res  *sim.Result   // nil when the run failed or panicked
}

// simulate runs in under scheme sc; it is the suite's only call of
// core.Instance.Run. An instance with no collector and no event log
// runs through the suite's memo, and a run another caller already
// simulated returns a copy of that result under in's name. An
// observed instance always simulates: its collector or log must see
// every run.
func (s *Suite) simulate(in *core.Instance, sc core.Scheme) (*sim.Result, error) {
	if in.Obs != nil || in.Events != nil {
		return in.Run(sc)
	}
	tr, err := in.Trace(sc)
	if err != nil {
		return nil, err
	}
	if len(tr.Events) == 0 {
		return in.Run(sc)
	}
	key := runKey{first: &tr.Events[0], n: len(tr.Events), scheme: sc, cfg: in.Cfg.Fingerprint(), audit: in.Cfg.Audit}
	res, shared, err := s.runs.do(key, func() (*sim.Result, error) { return in.Run(sc) })
	if err != nil || !shared {
		return res, err
	}
	cp := *res
	cp.Program = in.Name
	return &cp, nil
}

// do returns the result memoized under key, calling run for it once
// (concurrent callers wait for that call), and whether the result is
// another caller's. A run that fails or panics leaves no entry, and
// the callers that waited on it look the key up again, so a retried
// cell simulates afresh rather than share a run that never finished.
func (m *runMemo) do(key runKey, run func() (*sim.Result, error)) (*sim.Result, bool, error) {
	m.mu.Lock()
	m.lookups++
	for {
		e, ok := m.runs[key]
		if !ok {
			break
		}
		m.mu.Unlock()
		<-e.done
		if e.res != nil {
			return e.res, true, nil
		}
		m.mu.Lock()
	}
	if m.runs == nil {
		m.runs = make(map[runKey]*runEntry)
	}
	e := &runEntry{done: make(chan struct{})}
	m.runs[key] = e
	m.sims++
	m.mu.Unlock()
	defer func() {
		if e.res == nil {
			m.mu.Lock()
			delete(m.runs, key)
			m.mu.Unlock()
		}
		close(e.done)
	}()
	res, err := run()
	if err != nil {
		return nil, false, err
	}
	e.res = res
	return res, false, nil
}
