package serve

// Degraded mode: the service survives persistence faults instead of
// failing requests on them. Every journal append goes through
// degradingJournal, which retries transient failures with backoff and
// — when the journal stays unwritable or is poisoned (a torn write or
// failed fsync, after which the file tail is suspect) — flips the
// server into degraded mode: requests keep computing and returning
// correct results from memory, /readyz reports "degraded: journal",
// and clients that need the durability guarantee (requests with
// "durable": true) receive a typed 503 instead of a silently
// non-durable success.

import (
	"log/slog"
	"time"

	"sdpm/internal/experiments"
	"sdpm/internal/obs"
)

// degradingJournal is the experiments.CellJournal the server threads
// into every request's suite. Lookups pass through; appends retry and
// then degrade rather than fail the request.
type degradingJournal struct{ s *Server }

var _ experiments.CellJournal = (*degradingJournal)(nil)

// Lookup serves resumed cells straight from the journal's in-memory
// record set (which stays valid even when the file is unwritable).
func (d *degradingJournal) Lookup(key string) ([]float64, bool) {
	return d.s.jrnl().Lookup(key)
}

// Append journals one completed cell. A failure is retried up to
// JournalRetries times with doubling backoff — unless the journal is
// poisoned (the failure tore the file or broke an fsync, so retrying
// cannot help). If no attempt succeeds the server degrades and the
// cell's result is served from memory: Append reports success to the
// suite so the request completes, and the lost durability is surfaced
// through /readyz, /status, the sdpm_serve_journal_errors_total
// counter, and 503s on durability-requiring requests.
func (d *degradingJournal) Append(key string, vals []float64) error {
	s := d.s
	if s.degraded.Load() {
		return nil // already memory-only; don't hammer a dead disk
	}
	backoff := s.cfg.JournalRetryBackoff
	var last error
	for attempt := 0; ; attempt++ {
		// Refetch the handle every attempt: the reprobe loop may have
		// swapped in a fresh journal since the last one (an append to
		// the closed old handle fails cleanly and the retry lands on
		// the new one).
		j := s.jrnl()
		err := j.Append(key, vals)
		if err == nil {
			if attempt > 0 {
				slog.Info("journal append recovered after retry", "attempts", attempt+1)
			}
			return nil
		}
		last = err
		s.coll.Add(obs.ServeJournalErrors, 1)
		slog.Warn("journal append failed", "key", key, "attempt", attempt+1, "err", err)
		if j.Poisoned() != nil || attempt >= s.cfg.JournalRetries || s.degraded.Load() {
			break
		}
		time.Sleep(backoff)
		backoff *= 2
	}
	s.setDegraded(last)
	return nil
}

// Degraded reports whether the server has fallen back to memory-only
// operation, and why.
func (s *Server) Degraded() (bool, string) {
	if !s.degraded.Load() {
		return false, ""
	}
	s.degradedMu.Lock()
	defer s.degradedMu.Unlock()
	return true, s.degradedReason
}

// setDegraded flips the server into degraded mode (idempotent; the
// first cause wins as the reason).
func (s *Server) setDegraded(cause error) {
	s.degradedMu.Lock()
	first := !s.degraded.Load()
	if first {
		s.degradedReason = cause.Error()
		s.degraded.Store(true)
	}
	s.degradedMu.Unlock()
	if first {
		slog.Error("journal degraded; serving from memory, results are no longer durable", "err", cause)
	}
}

// clearDegraded lifts degraded mode after a successful reprobe
// re-attached the journal.
func (s *Server) clearDegraded() {
	s.degradedMu.Lock()
	s.degraded.Store(false)
	s.degradedReason = ""
	s.degradedMu.Unlock()
}

// unavailableDegraded is the typed 503 a durability-requiring request
// receives while the journal is degraded.
func unavailableDegraded(reason string) *Error {
	return &Error{
		Kind: KindUnavailable,
		Msg:  "degraded: journal is unwritable, results are not durable: " + reason,
		Meta: map[string]any{"degraded": "journal"},
	}
}
