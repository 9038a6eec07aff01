package client

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestClient builds a client against base with fast defaults and a
// recording no-op sleep so retry tests run instantly.
func newTestClient(base string, cfg Config) (*Client, *[]time.Duration) {
	cfg.BaseURL = base
	c := New(cfg)
	var slept []time.Duration
	var mu sync.Mutex
	c.sleep = func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		slept = append(slept, d)
		mu.Unlock()
		return ctx.Err()
	}
	return c, &slept
}

func writeEnvelope(w http.ResponseWriter, status int, kind, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, `{"error":{"kind":%q,"message":%q}}`, kind, msg)
}

func TestRetryOn500ThenSuccess(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			writeEnvelope(w, 500, "internal", "boom")
			return
		}
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()

	c, _ := newTestClient(srv.URL, Config{Seed: 1})
	res, err := c.Do(context.Background(), http.MethodGet, "/", nil, "")
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if string(res.Body) != "ok" || res.Attempts != 3 {
		t.Fatalf("body=%q attempts=%d", res.Body, res.Attempts)
	}
	m := c.Metrics()
	if m.Retries != 2 || m.HTTPRetries != 2 || m.Succeeded != 1 || m.Failed != 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestTerminal400NotRetried(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		writeEnvelope(w, 400, "validation", "bad bench")
	}))
	defer srv.Close()

	c, _ := newTestClient(srv.URL, Config{Seed: 1})
	_, err := c.Do(context.Background(), http.MethodPost, "/v1/sim", []byte(`{}`), "")
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error = %v (%T), want *APIError", err, err)
	}
	if apiErr.Status != 400 || apiErr.Kind != "validation" {
		t.Fatalf("apiErr = %+v", apiErr)
	}
	if hits.Load() != 1 {
		t.Fatalf("server hit %d times for a terminal 400, want 1", hits.Load())
	}
	if m := c.Metrics(); m.Failed != 1 || m.Retries != 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestRetryAfterStretchesBackoff(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "2")
			writeEnvelope(w, 429, "overload", "shed")
			return
		}
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()

	c, slept := newTestClient(srv.URL, Config{Seed: 1, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond})
	if _, err := c.Do(context.Background(), http.MethodGet, "/", nil, ""); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if len(*slept) != 1 || (*slept)[0] < 2*time.Second {
		t.Fatalf("slept %v, want one sleep stretched to >= 2s by Retry-After", *slept)
	}
	m := c.Metrics()
	if m.RetryAfterHonored != 1 {
		t.Fatalf("retry_after_honored = %d, want 1", m.RetryAfterHonored)
	}
	// 429 must not feed the breaker's failure streak.
	if m.BreakerOpens != 0 {
		t.Fatalf("a 429 opened the breaker")
	}
}

func TestBackoffCapAndDeterminism(t *testing.T) {
	a := New(Config{Seed: 9, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond})
	b := New(Config{Seed: 9, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond})
	for try := 1; try <= 12; try++ {
		da, db := a.backoff(try, 0), b.backoff(try, 0)
		if da != db {
			t.Fatalf("try %d: same seed, different backoff %v vs %v", try, da, db)
		}
		if da < 0 || da > 80*time.Millisecond {
			t.Fatalf("try %d: backoff %v outside [0, cap]", try, da)
		}
	}
}

func TestIdempotencyKeyDeterministicAndStableAcrossRetries(t *testing.T) {
	var mu sync.Mutex
	var keys []string
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		mu.Unlock()
		if hits.Add(1) == 1 {
			writeEnvelope(w, 503, "unavailable", "warming up")
			return
		}
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()

	c, _ := newTestClient(srv.URL, Config{Seed: 42})
	if _, err := c.Do(context.Background(), http.MethodPost, "/", []byte(`{}`), ""); err != nil {
		t.Fatalf("Do: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(keys) != 2 || keys[0] == "" || keys[0] != keys[1] {
		t.Fatalf("keys across retry = %v, want two identical non-empty keys", keys)
	}
	// Same seed, same request index: same key. Different seed: different.
	same := New(Config{Seed: 42})
	other := New(Config{Seed: 43})
	if same.idemKey(0) != keys[0] {
		t.Fatalf("idemKey(0) = %q, want %q", same.idemKey(0), keys[0])
	}
	if other.idemKey(0) == keys[0] {
		t.Fatalf("different seeds produced the same idempotency key")
	}
}

func TestDigestMismatchRetried(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := "payload"
		sum := sha256.Sum256([]byte(body))
		digest := "sha256=" + hex.EncodeToString(sum[:])
		if hits.Add(1) == 1 {
			// Lie about the digest: simulates corruption in flight.
			digest = "sha256=" + hex.EncodeToString(make([]byte, 32))
		}
		w.Header().Set("X-Sdpm-Digest", digest)
		fmt.Fprint(w, body)
	}))
	defer srv.Close()

	c, _ := newTestClient(srv.URL, Config{Seed: 1})
	res, err := c.Do(context.Background(), http.MethodGet, "/", nil, "")
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if string(res.Body) != "payload" || res.Attempts != 2 {
		t.Fatalf("body=%q attempts=%d", res.Body, res.Attempts)
	}
	if m := c.Metrics(); m.DigestMismatches != 1 {
		t.Fatalf("digest_mismatches = %d, want 1", m.DigestMismatches)
	}
}

func TestDigestCheckDisabled(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Sdpm-Digest", "sha256="+hex.EncodeToString(make([]byte, 32)))
		fmt.Fprint(w, "payload")
	}))
	defer srv.Close()

	c, _ := newTestClient(srv.URL, Config{Seed: 1, DisableDigestCheck: true})
	if _, err := c.Do(context.Background(), http.MethodGet, "/", nil, ""); err != nil {
		t.Fatalf("Do with digest check disabled: %v", err)
	}
}

func TestReplayedHeaderCounted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Idempotency-Replayed", "true")
		fmt.Fprint(w, "cached")
	}))
	defer srv.Close()

	c, _ := newTestClient(srv.URL, Config{Seed: 1})
	res, err := c.Do(context.Background(), http.MethodGet, "/", nil, "")
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if !res.Replayed || c.Metrics().Replays != 1 {
		t.Fatalf("replayed=%v replays=%d", res.Replayed, c.Metrics().Replays)
	}
}

func TestBreakerFastFailAfterExhaustion(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeEnvelope(w, 500, "internal", "down hard")
	}))
	defer srv.Close()

	c, _ := newTestClient(srv.URL, Config{
		Seed:       1,
		MaxRetries: 1,
		Breaker:    BreakerConfig{FailureThreshold: 2, ProbeAfter: 3},
	})
	// Request 1: two attempts, two breaker failures -> open.
	_, err := c.Do(context.Background(), http.MethodGet, "/", nil, "")
	var exh *ExhaustedError
	if !errors.As(err, &exh) || exh.Attempts != 2 {
		t.Fatalf("first request err = %v", err)
	}
	// Request 2: rejected instantly, no network attempt.
	_, err = c.Do(context.Background(), http.MethodGet, "/", nil, "")
	var open *BreakerOpenError
	if !errors.As(err, &open) {
		t.Fatalf("second request err = %v (%T), want *BreakerOpenError", err, err)
	}
	m := c.Metrics()
	if m.BreakerFastFails != 1 || m.Attempts != 2 || m.BreakerOpens != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}

// A half-open probe answered with a terminal 4xx must resolve the
// probe: the server is alive, so the breaker closes instead of
// rejecting every future request forever.
func TestHalfOpenProbeResolvedByTerminal4xx(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch hits.Add(1) {
		case 1:
			writeEnvelope(w, 500, "internal", "down")
		case 2:
			writeEnvelope(w, 404, "not_found", "no such route")
		default:
			fmt.Fprint(w, "ok")
		}
	}))
	defer srv.Close()

	c, _ := newTestClient(srv.URL, Config{
		Seed:       1,
		MaxRetries: -1,
		Breaker:    BreakerConfig{FailureThreshold: 1, ProbeAfter: 1},
	})
	ctx := context.Background()
	// Request 1: 500 -> the breaker opens.
	if _, err := c.Do(ctx, http.MethodGet, "/", nil, ""); err == nil {
		t.Fatal("want a failure from the 500")
	}
	// Request 2 is the half-open probe; the 404 is terminal but proves
	// the server alive.
	_, err := c.Do(ctx, http.MethodGet, "/", nil, "")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("probe err = %v, want the 404 *APIError", err)
	}
	// Request 3: must go through — a wedged probe would fast-fail here
	// and on every request after.
	res, err := c.Do(ctx, http.MethodGet, "/", nil, "")
	if err != nil {
		t.Fatalf("request after 4xx-resolved probe: %v", err)
	}
	if string(res.Body) != "ok" {
		t.Fatalf("body = %q, want ok", res.Body)
	}
	m := c.Metrics()
	if m.BreakerState != "closed" || m.BreakerFastFails != 0 {
		t.Fatalf("breaker wedged after a 4xx probe: %+v", m)
	}
}

func TestTransportErrorRetriedAndCounted(t *testing.T) {
	// A listener that closed: connection refused on every attempt.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead := srv.URL
	srv.Close()

	c, _ := newTestClient(dead, Config{Seed: 1, MaxRetries: 2})
	_, err := c.Do(context.Background(), http.MethodGet, "/", nil, "")
	var exh *ExhaustedError
	if !errors.As(err, &exh) || exh.Attempts != 3 {
		t.Fatalf("err = %v, want exhaustion after 3 attempts", err)
	}
	if m := c.Metrics(); m.NetErrors != 3 || m.Retries != 2 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestCanceledContextStopsRetrying(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeEnvelope(w, 503, "unavailable", "nope")
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	c, _ := newTestClient(srv.URL, Config{Seed: 1, MaxRetries: 10})
	calls := 0
	c.sleep = func(ctx context.Context, d time.Duration) error {
		calls++
		cancel() // the caller gives up during the first backoff
		return context.Canceled
	}
	_, err := c.Do(ctx, http.MethodGet, "/", nil, "")
	if err == nil {
		t.Fatalf("expected an error after cancellation")
	}
	if calls != 1 {
		t.Fatalf("kept retrying after the context died: %d sleeps", calls)
	}
}

func TestHedgeWinsAgainstSlowPrimary(t *testing.T) {
	var hits atomic.Int64
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			// The primary parks until the test ends.
			select {
			case <-release:
			case <-r.Context().Done():
			}
			return
		}
		fmt.Fprint(w, "hedged")
	}))
	defer srv.Close()
	defer close(release)

	c, _ := newTestClient(srv.URL, Config{Seed: 1, HedgeDelay: 30 * time.Millisecond})
	res, err := c.Do(context.Background(), http.MethodGet, "/", nil, "")
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if string(res.Body) != "hedged" {
		t.Fatalf("body = %q", res.Body)
	}
	m := c.Metrics()
	if m.Hedges != 1 || m.HedgesWon != 1 || m.HedgesLost != 0 {
		t.Fatalf("hedge metrics: %+v", m)
	}
	if m.Attempts != 2 || m.Retries != 0 {
		t.Fatalf("a hedge is not a retry: %+v", m)
	}
	// The canceled loser is a hedging artifact, not a network fault.
	if m.NetErrors != 0 {
		t.Fatalf("net_errors = %d after a hedge win, want 0", m.NetErrors)
	}
}

func TestHedgeLosesAgainstFastPrimary(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "primary")
	}))
	defer srv.Close()

	c, _ := newTestClient(srv.URL, Config{Seed: 1, HedgeDelay: 10 * time.Second})
	res, err := c.Do(context.Background(), http.MethodGet, "/", nil, "")
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if string(res.Body) != "primary" {
		t.Fatalf("body = %q", res.Body)
	}
	if m := c.Metrics(); m.Hedges != 0 || m.HedgesWon != 0 {
		t.Fatalf("hedge launched despite a fast primary: %+v", m)
	}
}

func TestMetricsSnapshotStringDeterministic(t *testing.T) {
	s := MetricsSnapshot{
		Requests: 3, Succeeded: 2, Failed: 1, BreakerState: "closed",
		BreakerTransitions: []string{"open@4", "closed@9"},
	}
	a, b := s.String(), s.String()
	if a != b {
		t.Fatalf("snapshot String not stable")
	}
	if want := "breaker_transitions=open@4;closed@9\n"; !contains(a, want) {
		t.Fatalf("snapshot missing transition line:\n%s", a)
	}
}

// TestMetricsSnapshotStringGolden pins the dpmctl -metrics bytes for a
// snapshot whose every field is set to a distinct value.
func TestMetricsSnapshotStringGolden(t *testing.T) {
	s := MetricsSnapshot{
		Requests: 1, Succeeded: 2, Failed: 3, Attempts: 4, Retries: 5,
		BreakerFastFails: 6, BreakerOpens: 7, BreakerHalfOpens: 8, BreakerCloses: 9,
		BreakerState:       "half-open",
		BreakerTransitions: []string{"open@4", "half-open@9", "closed@10"},
		Hedges:             10, HedgesWon: 11, HedgesLost: 12, Replays: 13,
		DigestMismatches: 14, RetryAfterHonored: 15, NetErrors: 16, HTTPRetries: 17,
	}
	want, err := os.ReadFile("testdata/metrics_string.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.String(); got != string(want) {
		t.Fatalf("String() differs from testdata/metrics_string.golden:\n%s", got)
	}
}

func contains(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}
