package serve

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"sdpm/internal/fsx"
	"sdpm/internal/obs"
)

// degrade drives one journaled experiment through a failing filesystem
// and asserts the server ends up degraded.
func degrade(t *testing.T, s *Server) {
	t.Helper()
	if w := do(s, "POST", "/v1/experiment", `{"id":"table2"}`, nil); w.Code != http.StatusOK {
		t.Fatalf("experiment during journal failure = %d (%s)", w.Code, w.Body.String())
	}
	if deg, _ := s.Degraded(); !deg {
		t.Fatal("server not degraded after unwritable journal")
	}
}

// A reprobe against a healed filesystem re-attaches the journal:
// degraded mode lifts, /readyz flips back to ready, durable requests
// succeed again, and the recovery is counted on every surface.
func TestReprobeRecoversAfterHeal(t *testing.T) {
	fa := fsx.NewFaulty(21).FailWrites(1, errInjectedIO)
	s := newDegradableServer(t, fa, func(c *Config) { c.JournalRetries = -1 })
	degrade(t, s)

	// Still broken: the probe write fails and the server stays degraded.
	if err := s.reprobe(); err == nil {
		t.Fatal("reprobe succeeded against a still-failing filesystem")
	}
	if deg, _ := s.Degraded(); !deg {
		t.Fatal("failed reprobe lifted degraded mode")
	}
	if n := s.coll.Value(obs.ServeJournalRecoveries); n != 0 {
		t.Fatalf("recoveries = %d after a failed probe, want 0", n)
	}

	// Heal the filesystem; the next probe re-attaches.
	fa.FailWrites(0, nil)
	if err := s.reprobe(); err != nil {
		t.Fatalf("reprobe after heal: %v", err)
	}
	if deg, reason := s.Degraded(); deg {
		t.Fatalf("still degraded after recovery: %q", reason)
	}
	if r := do(s, "GET", "/readyz", "", nil); r.Body.String() != "ready\n" {
		t.Fatalf("readyz after recovery = %q, want ready", r.Body.String())
	}
	if n := s.coll.Value(obs.ServeJournalRecoveries); n != 1 {
		t.Fatalf("recoveries = %d, want 1", n)
	}
	if m := do(s, "GET", "/metrics", "", nil); !strings.Contains(m.Body.String(), "sdpm_serve_journal_recoveries_total 1") {
		t.Fatal("metrics missing the recovery counter")
	}
	if st := do(s, "GET", "/status", "", nil); !strings.Contains(st.Body.String(), `"serve_journal_recoveries": 1`) {
		t.Fatalf("status missing serve_journal_recoveries: %s", st.Body.String())
	}

	// Durability is genuinely back: a durable request succeeds and its
	// cells land in the re-attached journal.
	if w := do(s, "POST", "/v1/experiment", `{"id":"table2","durable":true}`, nil); w.Code != http.StatusOK {
		t.Fatalf("durable request after recovery = %d (%s)", w.Code, w.Body.String())
	}
	if s.jrnl().Len() == 0 {
		t.Fatal("recovered journal has no cells after a durable request")
	}
}

// A poisoned journal (failed fsync tears the durability story) also
// recovers: the reprobe abandons the poisoned handle and reopens the
// file, truncating any torn tail.
func TestReprobeRecoversFromPoisonedJournal(t *testing.T) {
	fa := fsx.NewFaulty(22).FailSyncs(1, errInjectedIO)
	s := newDegradableServer(t, fa, nil)
	degrade(t, s)

	fa.FailSyncs(0, nil)
	if err := s.reprobe(); err != nil {
		t.Fatalf("reprobe after heal: %v", err)
	}
	if deg, _ := s.Degraded(); deg {
		t.Fatal("still degraded after recovering a poisoned journal")
	}
	// The fresh handle is unpoisoned and writable.
	if w := do(s, "POST", "/v1/experiment", `{"id":"table2","durable":true}`, nil); w.Code != http.StatusOK {
		t.Fatalf("durable request after poison recovery = %d (%s)", w.Code, w.Body.String())
	}
}

// The background loop performs the recovery on its own when armed via
// JournalReprobe, and BeginDrain stops it.
func TestReprobeLoopAutoRecovers(t *testing.T) {
	fa := fsx.NewFaulty(23).FailWrites(1, errInjectedIO)
	s := newDegradableServer(t, fa, func(c *Config) {
		c.JournalReprobe = 5 * time.Millisecond
	})
	degrade(t, s)

	fa.FailWrites(0, nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if deg, _ := s.Degraded(); !deg {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reprobe loop never recovered the journal")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := s.coll.Value(obs.ServeJournalRecoveries); n != 1 {
		t.Fatalf("recoveries = %d, want exactly 1", n)
	}
	s.BeginDrain() // closes the loop's stop channel; must not panic or hang
	s.BeginDrain() // idempotent
}

// Drain must not race the reprobe loop: BeginDrain waits the loop out,
// so the journal handle Drain finalizes is the final one — never a
// handle the loop closed moments before swapping in a fresh one.
func TestDrainWaitsForReprobeLoop(t *testing.T) {
	fa := fsx.NewFaulty(24).FailWrites(1, errInjectedIO)
	s := newDegradableServer(t, fa, func(c *Config) {
		c.JournalReprobe = time.Millisecond
	})
	degrade(t, s)
	fa.FailWrites(0, nil)

	// Drain while the loop is probing hot; whichever side of a recovery
	// the drain lands on, the finalize must target a live handle.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain racing the reprobe loop: %v", err)
	}
}
