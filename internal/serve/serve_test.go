package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sdpm/internal/experiments"
	"sdpm/internal/journal"
	"sdpm/internal/obs"
)

// newTestServer builds a service with test-friendly defaults; mutate
// applies per-test config overrides before New.
func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		MaxInflight:    2,
		MaxQueue:       4,
		QueueWait:      200 * time.Millisecond,
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     time.Minute,
		DrainTimeout:   10 * time.Second,
		Workers:        1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	return s
}

// do runs one request against the handler and returns the recorder.
func do(s *Server, method, target string, body string, header map[string]string) *httptest.ResponseRecorder {
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, target, nil)
	} else {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	for k, v := range header {
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	return w
}

// kindOf decodes the typed error envelope.
func kindOf(t *testing.T, w *httptest.ResponseRecorder) Kind {
	t.Helper()
	var b errBody
	if err := json.Unmarshal(w.Body.Bytes(), &b); err != nil {
		t.Fatalf("error body is not the JSON envelope: %v (%s)", err, w.Body.String())
	}
	if b.Error.Kind == "" {
		t.Fatalf("error body missing kind: %s", w.Body.String())
	}
	return b.Error.Kind
}

// Every malformed request maps to a 400 with the validation kind —
// never a panic, never a 500 — and leaves no idempotency entry.
func TestValidationErrors(t *testing.T) {
	s := newTestServer(t, nil)
	cases := []struct {
		name, target, body string
		header             map[string]string
	}{
		{"bad json", "/v1/sim", "{not json", nil},
		{"unknown field", "/v1/sim", `{"bench":"swim","nope":1}`, nil},
		{"trailing data", "/v1/sim", `{"bench":"swim"} extra`, nil},
		{"missing bench", "/v1/sim", `{}`, nil},
		{"unknown bench", "/v1/sim", `{"bench":"doom"}`, nil},
		{"unknown scheme", "/v1/sim", `{"bench":"swim","scheme":"WARP"}`, nil},
		{"bad faults spec", "/v1/sim", `{"bench":"swim","faults":"zap=1"}`, nil},
		{"unknown experiment", "/v1/experiment", `{"id":"fig99"}`, nil},
		{"bad format", "/v1/experiment", `{"id":"table1","format":"yaml"}`, nil},
		{"bad timeout", "/v1/sim?timeout=banana", `{"bench":"swim"}`, nil},
		{"negative timeout", "/v1/sim?timeout=-3s", `{"bench":"swim"}`, nil},
		{"long idempotency key", "/v1/sim", `{"bench":"swim"}`, // one byte over the documented cap
			map[string]string{"Idempotency-Key": strings.Repeat("k", 257)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(s, "POST", tc.target, tc.body, tc.header)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%s)", w.Code, w.Body.String())
			}
			if k := kindOf(t, w); k != KindValidation {
				t.Fatalf("kind = %q, want validation", k)
			}
			s.idem.mu.Lock()
			n := len(s.idem.entries)
			s.idem.mu.Unlock()
			if n != 0 {
				t.Fatalf("a refused request left %d idempotency entries", n)
			}
		})
	}
}

// A simulation request succeeds; replays under the same idempotency
// key return byte-identical bodies without recomputing, and reusing
// the key with a different body is a typed conflict.
func TestSimAndIdempotency(t *testing.T) {
	s := newTestServer(t, nil)
	body := `{"bench":"swim","scheme":"CMDRPM"}`
	hdr := map[string]string{"Idempotency-Key": "req-1"}
	first := do(s, "POST", "/v1/sim", body, hdr)
	if first.Code != http.StatusOK {
		t.Fatalf("first request: %d (%s)", first.Code, first.Body.String())
	}
	var res simResponse
	if err := json.Unmarshal(first.Body.Bytes(), &res); err != nil {
		t.Fatalf("bad sim response: %v", err)
	}
	if res.Bench != "swim" || res.Scheme != "CMDRPM" || res.EnergyJ <= 0 || res.ExecMS <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	replay := do(s, "POST", "/v1/sim", body, hdr)
	if replay.Code != http.StatusOK {
		t.Fatalf("replay: %d (%s)", replay.Code, replay.Body.String())
	}
	if replay.Header().Get("Idempotency-Replayed") != "true" {
		t.Fatal("replay missing Idempotency-Replayed header")
	}
	if !bytes.Equal(first.Body.Bytes(), replay.Body.Bytes()) {
		t.Fatalf("replay bytes differ:\n%s\nvs\n%s", first.Body.String(), replay.Body.String())
	}
	conflict := do(s, "POST", "/v1/sim", `{"bench":"mgrid"}`, hdr)
	if conflict.Code != http.StatusConflict {
		t.Fatalf("conflict status = %d, want 409", conflict.Code)
	}
	if k := kindOf(t, conflict); k != KindConflict {
		t.Fatalf("kind = %q, want conflict", k)
	}
}

// The served experiment bytes are identical to the same experiment
// rendered offline the way dpmexp does it — the service adds serving
// machinery, never changes results.
func TestExperimentByteIdentityWithOffline(t *testing.T) {
	s := newTestServer(t, nil)
	for _, tc := range []struct{ id, format string }{
		{"table2", "text"},
		{"table1", "csv"},
	} {
		w := do(s, "POST", "/v1/experiment", fmt.Sprintf(`{"id":%q,"format":%q}`, tc.id, tc.format), nil)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", tc.id, w.Code, w.Body.String())
		}
		var offline bytes.Buffer
		su := experiments.NewSuite()
		su.Workers = 1
		if err := experiments.Render(su, tc.id, &offline, tc.format); err != nil {
			t.Fatalf("offline render %s: %v", tc.id, err)
		}
		if !bytes.Equal(w.Body.Bytes(), offline.Bytes()) {
			t.Fatalf("%s/%s: served bytes differ from offline render:\n--- served ---\n%s\n--- offline ---\n%s",
				tc.id, tc.format, w.Body.String(), offline.String())
		}
	}
}

// An experiment request's suite runs on the server's own benchmarks,
// which the shared cache keys on, under dpmexp's configuration: it
// builds no workload programs of its own.
func TestExperimentSuiteSharesServerBenchmarks(t *testing.T) {
	s := newTestServer(t, nil)
	su, err := s.experimentSuite(&expRequest{ID: "table2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(su.Benchmarks) != len(s.benchmarks) || &su.Benchmarks[0] != &s.benchmarks[0] {
		t.Fatalf("the request's suite holds %d benchmarks at %p, the server %d at %p",
			len(su.Benchmarks), su.Benchmarks, len(s.benchmarks), s.benchmarks)
	}
	if want := experiments.NewSuite().Cfg; !reflect.DeepEqual(su.Cfg, want) {
		t.Fatalf("the request's suite runs under %+v, NewSuite under %+v", su.Cfg, want)
	}
	if su.Cache != s.cache || su.Obs != s.coll {
		t.Fatal("the request's suite does not share the server's cache and collector")
	}
}

// A chaos stall past the request deadline maps to 504 with the
// deadline kind and partial-progress metadata.
func TestDeadlineExceeded(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Chaos = &Chaos{Seed: 1, StallProb: 1, StallMS: 5000}
	})
	start := time.Now()
	w := do(s, "POST", "/v1/sim?timeout=50ms", `{"bench":"swim"}`, nil)
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("deadline did not cut the stall short (took %v)", elapsed)
	}
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", w.Code, w.Body.String())
	}
	if k := kindOf(t, w); k != KindDeadline {
		t.Fatalf("kind = %q, want deadline", k)
	}
	var b errBody
	json.Unmarshal(w.Body.Bytes(), &b)
	if _, ok := b.Error.Meta["elapsed_ms"]; !ok {
		t.Fatalf("deadline error missing partial-progress metadata: %s", w.Body.String())
	}
	if deadline := s.coll.Value(obs.ServeDeadline); deadline != 1 {
		t.Fatalf("deadline counter = %d, want 1", deadline)
	}
}

// A panicking request — here a chaos injection at the exact point
// user work runs — returns a typed 500 and leaves the server fully
// alive for the next request.
func TestPanicIsolation(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Chaos = &Chaos{Seed: 1, PanicProb: 1}
	})
	for i := 0; i < 2; i++ {
		w := do(s, "POST", "/v1/sim", `{"bench":"swim"}`, nil)
		if w.Code != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d, want 500 (%s)", i, w.Code, w.Body.String())
		}
		if k := kindOf(t, w); k != KindInternal {
			t.Fatalf("kind = %q, want internal", k)
		}
		if !strings.Contains(w.Body.String(), "panicked") {
			t.Fatalf("error does not mention the panic: %s", w.Body.String())
		}
	}
	if w := do(s, "GET", "/healthz", "", nil); w.Code != http.StatusOK {
		t.Fatalf("server unhealthy after isolated panics: %d", w.Code)
	}
	if w := do(s, "GET", "/v1/experiments", "", nil); w.Code != http.StatusOK {
		t.Fatalf("listing failed after isolated panics: %d", w.Code)
	}
}

// Admission control, unit level: a full queue sheds instantly, a
// queue-wait expiry sheds, and a fired request context maps to the
// deadline kind — all with the slot accounting intact.
func TestAdmitterBounds(t *testing.T) {
	coll := obs.New()
	a := newAdmitter(1, 1, 80*time.Millisecond, coll)
	release1, _, err := a.acquire(context.Background())
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	// Occupy the single queue spot with a waiter.
	waiterDone := make(chan *Error, 1)
	go func() {
		release, _, werr := a.acquire(context.Background())
		if werr == nil {
			release()
		}
		waiterDone <- werr
	}()
	waitFor(t, func() bool { return coll.Value(obs.ServeQueued) == 1 })
	// Queue full: instant shed.
	if _, _, err := a.acquire(context.Background()); err == nil || err.Kind != KindOverload {
		t.Fatalf("full queue: err = %v, want overload", err)
	}
	// Free the slot: the waiter gets it within its budget.
	release1()
	if werr := <-waiterDone; werr != nil {
		t.Fatalf("queued waiter failed: %v", werr)
	}
	// Now the slot is free again (waiter released). Take it, and let a
	// queued request time out against the wait budget.
	release2, _, err := a.acquire(context.Background())
	if err != nil {
		t.Fatalf("re-acquire: %v", err)
	}
	if _, _, err := a.acquire(context.Background()); err == nil || err.Kind != KindOverload {
		t.Fatalf("queue-wait expiry: err = %v, want overload", err)
	}
	// A queued request whose own deadline fires first reports deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, _, err := a.acquire(ctx); err == nil || err.Kind != KindDeadline {
		t.Fatalf("ctx deadline in queue: err = %v, want deadline", err)
	}
	release2()
	if _, _, err := a.acquire(context.Background()); err != nil {
		t.Fatalf("acquire after releases: %v", err)
	}
}

// HTTP-level load shedding: with one slot held by a stalled request
// and the queue sized to zero spare, concurrent requests are shed
// with 429 and a Retry-After hint.
func TestOverloadShedsWith429(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MaxInflight = 1
		c.MaxQueue = 1
		c.QueueWait = 100 * time.Millisecond
		c.Chaos = &Chaos{Seed: 1, StallProb: 1, StallMS: 1500}
	})
	var wg sync.WaitGroup
	codes := make([]int, 4)
	retryAfter := make([]string, 4)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := do(s, "POST", "/v1/sim?timeout=3s", `{"bench":"swim"}`, nil)
			codes[i] = w.Code
			retryAfter[i] = w.Header().Get("Retry-After")
		}(i)
		time.Sleep(30 * time.Millisecond) // deterministic arrival order
	}
	wg.Wait()
	var shed int
	for i, c := range codes {
		switch c {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			shed++
			if retryAfter[i] == "" {
				t.Fatalf("429 without Retry-After")
			}
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if shed == 0 {
		t.Fatalf("no request was shed under overload: %v", codes)
	}
	if shedN := s.coll.Value(obs.ServeShed); int(shedN) != shed {
		t.Fatalf("shed counter = %d, want %d", shedN, shed)
	}
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// Drain flips readiness to 503, refuses new work with the typed
// unavailable error, and finalizes the shared journal atomically.
func TestDrainRefusesAndFinalizes(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "serve.journal")
	s := newTestServer(t, func(c *Config) { c.JournalPath = jpath })
	if w := do(s, "GET", "/readyz", "", nil); w.Code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", w.Code)
	}
	if w := do(s, "POST", "/v1/experiment", `{"id":"table2"}`, nil); w.Code != http.StatusOK {
		t.Fatalf("experiment: %d (%s)", w.Code, w.Body.String())
	}
	s.BeginDrain()
	if w := do(s, "GET", "/readyz", "", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", w.Code)
	}
	w := do(s, "POST", "/v1/sim", `{"bench":"swim"}`, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("request while draining = %d, want 503", w.Code)
	}
	if k := kindOf(t, w); k != KindUnavailable {
		t.Fatalf("kind = %q, want unavailable", k)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// The finalized journal is complete, deduplicated, and unlocked.
	assertJournalFinalized(t, jpath, 6) // table2 = one cell per benchmark
}

// assertJournalFinalized opens the finalized journal file and checks
// it parses cleanly with exactly n unique, non-duplicated records.
func assertJournalFinalized(t *testing.T, path string, n int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("journal missing after drain: %v", err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	seen := make(map[string]bool)
	for _, line := range lines {
		rec, err := journal.DecodeLine(line)
		if err != nil {
			t.Fatalf("finalized journal has invalid record: %v", err)
		}
		if seen[rec.Key] {
			t.Fatalf("finalized journal has duplicate cell %q", rec.Key)
		}
		seen[rec.Key] = true
	}
	if len(seen) != n {
		t.Fatalf("finalized journal has %d cells, want %d", len(seen), n)
	}
	j, err := journal.Open(path)
	if err != nil {
		t.Fatalf("reopening finalized journal: %v", err)
	}
	defer j.Close()
	if records, torn := j.Recovered(); records != n || torn != 0 {
		t.Fatalf("reopen recovered %d records, %d torn bytes; want %d, 0", records, torn, n)
	}
}

// The acceptance scenario: under seeded chaos stalls, a burst of
// concurrent requests meets a drain mid-flight. Every accepted
// request must complete or fail with a typed deadline/overload error,
// requests after drain get the typed unavailable refusal, the drain
// finishes within its deadline, and the journal finalizes with zero
// lost or duplicated cells.
func TestDrainUnderChaosCompletesEveryAcceptedRequest(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "chaos.journal")
	s := newTestServer(t, func(c *Config) {
		c.MaxInflight = 2
		c.MaxQueue = 8
		c.QueueWait = 2 * time.Second
		c.JournalPath = jpath
		c.Chaos = &Chaos{Seed: 7, StallProb: 0.5, StallMS: 120}
	})
	const burst = 10
	var wg sync.WaitGroup
	type outcome struct {
		code int
		kind Kind
		body []byte
	}
	outcomes := make([]outcome, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			target := "/v1/experiment"
			if i%2 == 1 {
				// Odd requests carry a deadline shorter than the chaos
				// stall: if they draw a stall they must come back as a
				// typed 504, never hang.
				target += "?timeout=60ms"
			}
			w := do(s, "POST", target, `{"id":"table2"}`, nil)
			o := outcome{code: w.Code, body: w.Body.Bytes()}
			if w.Code != http.StatusOK {
				var b errBody
				if err := json.Unmarshal(w.Body.Bytes(), &b); err == nil {
					o.kind = b.Error.Kind
				}
			}
			outcomes[i] = o
		}(i)
	}
	// Give the burst a moment to be in flight, then drain under it.
	time.Sleep(30 * time.Millisecond)
	s.BeginDrain()
	if w := do(s, "GET", "/readyz", "", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503", w.Code)
	}
	late := do(s, "POST", "/v1/experiment", `{"id":"table2"}`, nil)
	if late.Code != http.StatusServiceUnavailable || kindOf(t, late) != KindUnavailable {
		t.Fatalf("post-drain request = %d %s, want typed 503", late.Code, late.Body.String())
	}
	drainStart := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain did not finish cleanly: %v", err)
	}
	if d := time.Since(drainStart); d > 8*time.Second {
		t.Fatalf("drain exceeded its deadline: %v", d)
	}
	wg.Wait()

	var succeeded int
	var reference []byte
	for i, o := range outcomes {
		switch o.code {
		case http.StatusOK:
			succeeded++
			if reference == nil {
				reference = o.body
			} else if !bytes.Equal(reference, o.body) {
				t.Fatalf("request %d: success bytes differ across concurrent requests", i)
			}
		case http.StatusGatewayTimeout:
			if o.kind != KindDeadline {
				t.Fatalf("request %d: 504 with kind %q", i, o.kind)
			}
		case http.StatusTooManyRequests:
			if o.kind != KindOverload {
				t.Fatalf("request %d: 429 with kind %q", i, o.kind)
			}
		case http.StatusServiceUnavailable:
			// Arrived after the drain flag flipped.
			if o.kind != KindUnavailable {
				t.Fatalf("request %d: 503 with kind %q", i, o.kind)
			}
		case 499:
			if o.kind != KindCanceled {
				t.Fatalf("request %d: 499 with kind %q", i, o.kind)
			}
		default:
			t.Fatalf("request %d: unexpected status %d (%s)", i, o.code, string(o.body))
		}
	}
	if succeeded == 0 {
		t.Fatal("no request in the burst succeeded; the scenario proves nothing")
	}
	// Zero lost or duplicated cells: at least one table2 request
	// completed, so the finalized journal holds exactly its six cells,
	// each once, and the offline byte-identity holds for the survivors.
	assertJournalFinalized(t, jpath, 6)
	var offline bytes.Buffer
	su := experiments.NewSuite()
	su.Workers = 1
	if err := experiments.Render(su, "table2", &offline, "text"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reference, offline.Bytes()) {
		t.Fatalf("served table2 differs from offline render under chaos+drain")
	}
}

// A journal written by the service resumes a dpmexp-style offline
// suite and vice versa: the cell keys are the same namespace.
func TestJournalInterchangeableWithOffline(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "shared.journal")
	s := newTestServer(t, func(c *Config) { c.JournalPath = jpath })
	if w := do(s, "POST", "/v1/experiment", `{"id":"table2"}`, nil); w.Code != http.StatusOK {
		t.Fatalf("experiment: %d", w.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// Resume the service's journal offline: every cell must hit.
	j, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	coll := obs.New()
	su := experiments.NewSuite()
	su.Workers = 1
	su.Journal = j
	su.Obs = coll
	var out bytes.Buffer
	if err := experiments.Render(su, "table2", &out, "text"); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if hits, misses := coll.Value(obs.JournalHits), coll.Value(obs.JournalMisses); misses != 0 || hits == 0 {
		t.Fatalf("offline resume of the service journal recomputed cells: hits=%d misses=%d", hits, misses)
	}
}

// The chaos spec parser accepts the documented grammar and rejects
// everything else.
func TestParseChaos(t *testing.T) {
	if c, err := ParseChaos(""); err != nil || c != nil {
		t.Fatalf("empty spec: %v %v", c, err)
	}
	if c, err := ParseChaos("off"); err != nil || c != nil {
		t.Fatalf("off: %v %v", c, err)
	}
	c, err := ParseChaos("seed=9,stall=0.25,stall_ms=50,panic=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if c.Seed != 9 || c.StallProb != 0.25 || c.StallMS != 50 || c.PanicProb != 0.1 {
		t.Fatalf("parsed %+v", c)
	}
	for _, bad := range []string{
		"stall", "zap=1", "stall=2", "panic=-0.5", "stall_ms=-1", "seed=x",
		// NaN compares false both ways: every request would stall, or
		// none would panic.
		"stall=NaN", "panic=NaN",
		// Stalls a time.Duration cannot hold.
		"stall_ms=Inf", "stall_ms=1e300",
		// The seed is an integer, not a float truncated to one.
		"seed=1e30", "seed=1.5", "seed=99999999999999999999",
		"@/etc/hostname",
	} {
		if c, err := ParseChaos(bad); err == nil {
			t.Errorf("spec %q accepted as %+v", bad, c)
		}
	}
	// The -faults grammar: comments, newlines, whitespace separators,
	// case-folded keys, and an exact 64-bit seed.
	for spec, want := range map[string]Chaos{
		"# soak\nseed=3 stall=0.5":  {Seed: 3, StallProb: 0.5, StallMS: 100},
		"Stall=0.5":                 {Seed: 1, StallProb: 0.5, StallMS: 100},
		"seed=9007199254740993":     {Seed: 9007199254740993, StallMS: 100},
		"seed=-7, STALL_MS=2.5e3\n": {Seed: -7, StallMS: 2500},
	} {
		c, err := ParseChaos(spec)
		if err != nil || *c != want {
			t.Errorf("ParseChaos(%q) = %+v, %v; want %+v", spec, c, err, want)
		}
	}
	// Determinism: the same seed draws the same stall/panic pattern.
	a, _ := ParseChaos("seed=3,stall=0.5,panic=0.5")
	b, _ := ParseChaos("seed=3,stall=0.5,panic=0.5")
	for k := uint64(0); k < 64; k++ {
		if a.shouldPanic(k) != b.shouldPanic(k) {
			t.Fatalf("panic draw %d not deterministic", k)
		}
	}
}

// The service's second journal opener fails fast with the journal's
// typed lock error — two daemons cannot corrupt one journal.
func TestTwoServersOneJournalFailFast(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "locked.journal")
	s := newTestServer(t, func(c *Config) { c.JournalPath = jpath })
	_, err := New(Config{JournalPath: jpath})
	var le *journal.LockError
	if err == nil || !errors.As(err, &le) {
		t.Fatalf("second server: err = %v, want *journal.LockError", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Drain(ctx)
}
