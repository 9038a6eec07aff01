package serve

// Degraded-mode auto-recovery. A transient filesystem fault (full
// disk, flaky mount) degrades the server to memory-only operation;
// without recovery the durability guarantee stays lost until a
// restart even after the filesystem heals. When Config.JournalReprobe
// is set, a background loop periodically re-probes the journal path
// while degraded: it closes the dead handle (releasing the path
// lock), reopens the journal in resume mode — every record that made
// it to disk survives — swaps the fresh handle in, lifts degraded
// mode, and counts the recovery. Requests in flight keep working
// throughout: lookups read the in-memory record set, and an append
// racing the swap fails cleanly on the closed handle and retries on
// the new one.

import (
	"log/slog"
	"time"

	"sdpm/internal/faults"
	"sdpm/internal/journal"
	"sdpm/internal/obs"
)

// streamReprobe keys the probe-interval jitter draws.
const streamReprobe = 0x7265700a00000001

// reprobeLoop runs until drain begins, probing at the configured
// interval plus a seeded jitter of up to a quarter interval (so a
// fleet of servers sharing storage does not re-probe in lockstep,
// while any single server's schedule stays deterministic).
func (s *Server) reprobeLoop() {
	defer s.reprobeWG.Done()
	for k := uint64(0); ; k++ {
		wait := s.cfg.JournalReprobe
		wait += time.Duration(faults.Uniform(int64(s.cfg.JournalReprobe), streamReprobe, k) * float64(wait) / 4)
		t := time.NewTimer(wait)
		select {
		case <-s.reprobeStop:
			t.Stop()
			return
		case <-t.C:
		}
		// The select above picks randomly when both channels are ready:
		// re-check stop so no recovery swaps the journal once drain has
		// begun (BeginDrain waits for this loop before Drain finalizes).
		select {
		case <-s.reprobeStop:
			return
		default:
		}
		if deg, _ := s.Degraded(); deg {
			if err := s.reprobe(); err != nil {
				slog.Warn("journal reprobe failed; staying degraded", "err", err)
			}
		}
	}
}

// reprobe attempts one recovery: reopen the journal path and, on
// success, re-attach it. Called by the loop, and directly by tests.
// A probe failure leaves the server degraded exactly as before.
func (s *Server) reprobe() error {
	old := s.jrnl()
	// Release the old handle first: it holds the path's writer lock,
	// and its in-memory state is not trusted past the poisoning
	// failure anyway. Close is idempotent and lookups against the old
	// handle keep working for requests that already hold it.
	if err := old.Close(); err != nil {
		slog.Warn("journal reprobe: closing degraded handle", "err", err)
	}
	j, err := journal.OpenFS(s.cfg.FS, s.cfg.JournalPath)
	if err != nil {
		return err
	}
	// Prove writability before declaring recovery: opening can succeed
	// on a filesystem that still fails writes, and flipping healthy on
	// an unwritable journal would bounce straight back to degraded.
	if err := j.Probe(); err != nil {
		j.Close()
		return err
	}
	s.swapJournal(j)
	s.clearDegraded()
	s.coll.Add(obs.ServeJournalRecoveries, 1)
	slog.Info("journal recovered from degraded mode",
		"path", s.cfg.JournalPath, "cells", j.Len())
	return nil
}
