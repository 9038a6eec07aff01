package serve

import (
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"sdpm/internal/fsx"
	"sdpm/internal/obs"
)

var errInjectedIO = errors.New("injected: input/output error")

// newDegradableServer builds a server whose journal writes through a
// seeded fault-injecting filesystem.
func newDegradableServer(t *testing.T, fa *fsx.Faulty, mutate func(*Config)) *Server {
	t.Helper()
	return newTestServer(t, func(c *Config) {
		c.JournalPath = "serve.journal"
		c.FS = fa
		c.JournalRetryBackoff = time.Millisecond
		if mutate != nil {
			mutate(c)
		}
	})
}

// A failed fsync poisons the journal, so the server degrades without
// burning retries: the request still succeeds with the exact bytes a
// journal-less server produces, /readyz and /status report the
// degradation, the error counter advances, and durable requests get a
// typed 503.
func TestDegradedOnSyncFailure(t *testing.T) {
	fa := fsx.NewFaulty(11).FailSyncs(1, errInjectedIO)
	s := newDegradableServer(t, fa, nil)
	plain := newTestServer(t, nil)

	w := do(s, "POST", "/v1/experiment", `{"id":"table2"}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("experiment during journal failure = %d (%s)", w.Code, w.Body.String())
	}
	if want := do(plain, "POST", "/v1/experiment", `{"id":"table2"}`, nil); w.Body.String() != want.Body.String() {
		t.Fatal("degraded response differs from a journal-less server's bytes")
	}
	if deg, reason := s.Degraded(); !deg || reason == "" {
		t.Fatalf("server not degraded after unwritable journal (deg=%v reason=%q)", deg, reason)
	}
	if r := do(s, "GET", "/readyz", "", nil); r.Code != http.StatusOK || r.Body.String() != "degraded: journal\n" {
		t.Fatalf("readyz = %d %q, want 200 \"degraded: journal\"", r.Code, r.Body.String())
	}
	if st := do(s, "GET", "/status", "", nil); !strings.Contains(st.Body.String(), `"degraded": "journal"`) {
		t.Fatalf("status missing degraded flag: %s", st.Body.String())
	}
	if n := s.coll.Value(obs.ServeJournalErrors); n == 0 {
		t.Fatal("journal error counter did not advance")
	}
	// Poisoned journal: retries are futile and must not have happened.
	if n := s.coll.Value(obs.ServeJournalErrors); n != 1 {
		t.Fatalf("poisoned journal burned %d attempts, want 1 (no retries)", n)
	}

	// Degraded but serving: plain requests keep working from memory.
	if w := do(s, "POST", "/v1/experiment", `{"id":"table2"}`, nil); w.Code != http.StatusOK {
		t.Fatalf("request after degradation = %d", w.Code)
	}
	// Durability-requiring requests get the typed 503.
	w = do(s, "POST", "/v1/experiment", `{"id":"table2","durable":true}`, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("durable request while degraded = %d, want 503", w.Code)
	}
	if k := kindOf(t, w); k != KindUnavailable {
		t.Fatalf("kind = %q, want unavailable", k)
	}
	if !strings.Contains(w.Body.String(), "degraded") {
		t.Fatalf("503 body does not say degraded: %s", w.Body.String())
	}
	// The Prometheus surface exports the counter.
	if m := do(s, "GET", "/metrics", "", nil); !strings.Contains(m.Body.String(), "sdpm_serve_journal_errors_total 1") {
		t.Fatalf("metrics missing journal error counter: %v", m.Code)
	}
}

// Clean write failures (no bytes landed) are retried with backoff
// before the server gives up and degrades: the configured budget is
// exactly exhausted and every attempt is counted.
func TestDegradedAfterRetryBudget(t *testing.T) {
	fa := fsx.NewFaulty(12).FailWrites(1, errInjectedIO)
	s := newDegradableServer(t, fa, func(c *Config) { c.JournalRetries = 3 })

	if w := do(s, "POST", "/v1/experiment", `{"id":"table2"}`, nil); w.Code != http.StatusOK {
		t.Fatalf("experiment during journal failure = %d (%s)", w.Code, w.Body.String())
	}
	if deg, _ := s.Degraded(); !deg {
		t.Fatal("server not degraded after exhausting the retry budget")
	}
	// 1 initial + 3 retries on the first cell; later cells skip the
	// journal entirely once degraded.
	if n := s.coll.Value(obs.ServeJournalErrors); n != 4 {
		t.Fatalf("journal error counter = %d, want 4 (initial + 3 retries)", n)
	}
}

// Seeded chaos: a journal whose fsyncs fail probabilistically. Some
// cells land durably before the first failure poisons the file; the
// server degrades exactly once, never fails a request, and the cells
// journaled before the failure stay recorded.
func TestDegradedChaosSeededSyncFaults(t *testing.T) {
	// Seed 2: with this stream the 4th append's fsync fails, so three
	// cells land durably before the journal poisons and degrades.
	fa := fsx.NewFaulty(2).FailSyncs(0.3, errInjectedIO)
	s := newDegradableServer(t, fa, nil)

	for i := 0; i < 3; i++ {
		if w := do(s, "POST", "/v1/experiment", `{"id":"table2"}`, nil); w.Code != http.StatusOK {
			t.Fatalf("request %d under sync chaos = %d (%s)", i, w.Code, w.Body.String())
		}
	}
	deg, _ := s.Degraded()
	if !deg {
		// 18 appends at p=0.3 failing none is astronomically unlikely
		// with this seed; treat survival as a test bug worth seeing.
		t.Fatal("chaos run never degraded; pick a different seed")
	}
	if s.journal.Len() == 0 {
		t.Fatal("no cell survived in memory")
	}
	// A retry never follows a poisoning failure, so errors == 1.
	if n := s.coll.Value(obs.ServeJournalErrors); n != 1 {
		t.Fatalf("journal error counter = %d, want 1", n)
	}
}

// Without a configured journal, durable requests are rejected up
// front as validation errors — there is nothing to be durable on.
func TestDurableWithoutJournalIsValidationError(t *testing.T) {
	s := newTestServer(t, nil)
	w := do(s, "POST", "/v1/experiment", `{"id":"table2","durable":true}`, nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("durable without journal = %d, want 400", w.Code)
	}
	if k := kindOf(t, w); k != KindValidation {
		t.Fatalf("kind = %q, want validation", k)
	}
}

// With a healthy journal, durable requests succeed and their cells
// are journaled.
func TestDurableWithHealthyJournal(t *testing.T) {
	fa := fsx.NewFaulty(13)
	s := newDegradableServer(t, fa, nil)
	w := do(s, "POST", "/v1/experiment", `{"id":"table2","durable":true}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("durable request = %d (%s)", w.Code, w.Body.String())
	}
	if s.journal.Len() == 0 {
		t.Fatal("durable request journaled no cells")
	}
	if deg, _ := s.Degraded(); deg {
		t.Fatal("healthy journal degraded")
	}
}
