package client

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sdpm/internal/netx"
)

// Acceptance tests: the resilient client against the netx chaos proxy.
// Connection-indexed fault scripts line up with client attempts
// because the client opens a fresh connection per attempt (keep-alive
// off) and each test drives requests sequentially.

// chaosStack boots an upstream serving body (with a correct
// X-Sdpm-Digest header) behind a netx proxy configured by cfg.
func chaosStack(t *testing.T, body string, seed int64, cfg netx.Config) string {
	t.Helper()
	sum := sha256.Sum256([]byte(body))
	digest := "sha256=" + hex.EncodeToString(sum[:])
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		w.Header().Set("X-Sdpm-Digest", digest)
		fmt.Fprint(w, body)
	}))
	t.Cleanup(up.Close)
	p, err := netx.New(strings.TrimPrefix(up.URL, "http://"), seed, cfg)
	if err != nil {
		t.Fatalf("netx.New: %v", err)
	}
	addr, err := p.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("netx start: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return "http://" + addr.String()
}

// breakerScript drives a fixed request sequence through a proxy that
// resets connections 2, 3, and 4, and returns the client's metrics.
// With MaxRetries disabled, attempt order equals connection order, so
// the breaker choreography is exact: three resets open it at decision
// 10, two fast-fail-phase calls reach the half-open probe at decision
// 12, and the clean probe closes it at decision 13.
func breakerScript(t *testing.T) MetricsSnapshot {
	t.Helper()
	base := chaosStack(t, "steady", 1, netx.Config{ResetAt: []int{2, 3, 4}})
	c := New(Config{
		BaseURL:    base,
		Seed:       7,
		MaxRetries: -1, // one attempt per request: requests map 1:1 to connections
		Breaker:    BreakerConfig{FailureThreshold: 3, ProbeAfter: 2},
	})
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		c.Do(ctx, http.MethodGet, "/", nil, "")
	}
	return c.Metrics()
}

func TestBreakerOpensAndClosesAtSeededPoints(t *testing.T) {
	m := breakerScript(t)
	want := []string{"open@10", "half-open@12", "closed@13"}
	if got := strings.Join(m.BreakerTransitions, ";"); got != strings.Join(want, ";") {
		t.Fatalf("breaker transitions = %q, want %q", got, strings.Join(want, ";"))
	}
	if m.Requests != 8 || m.Succeeded != 4 || m.Failed != 4 {
		t.Fatalf("request accounting: %+v", m)
	}
	if m.Attempts != 7 || m.NetErrors != 3 || m.BreakerFastFails != 1 {
		t.Fatalf("attempt accounting: %+v", m)
	}
	if m.BreakerOpens != 1 || m.BreakerHalfOpens != 1 || m.BreakerCloses != 1 {
		t.Fatalf("breaker counters: %+v", m)
	}
}

func TestBreakerScriptIsReproducible(t *testing.T) {
	first := breakerScript(t).String()
	second := breakerScript(t).String()
	if first != second {
		t.Fatalf("identical chaos script produced different metrics:\n--- first\n%s--- second\n%s", first, second)
	}
}

func TestRetriesRideThroughScriptedResets(t *testing.T) {
	// Connections 0 and 1 reset; the client's first request retries
	// onto connection 2, which is clean.
	base := chaosStack(t, "eventually", 1, netx.Config{ResetAt: []int{0, 1}})
	c := New(Config{BaseURL: base, Seed: 3, MaxRetries: 4, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	res, err := c.Do(context.Background(), http.MethodGet, "/", nil, "")
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if string(res.Body) != "eventually" || res.Attempts != 3 {
		t.Fatalf("body=%q attempts=%d, want the third attempt to land", res.Body, res.Attempts)
	}
	if m := c.Metrics(); m.NetErrors != 2 || m.Retries != 2 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestDigestCatchesWireCorruption(t *testing.T) {
	// Connection 0 has one body byte corrupted in flight; the digest
	// check rejects it and the retry on connection 1 is clean.
	base := chaosStack(t, strings.Repeat("x", 256), 5, netx.Config{CorruptAt: []int{0}})
	c := New(Config{BaseURL: base, Seed: 3, MaxRetries: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	res, err := c.Do(context.Background(), http.MethodGet, "/", nil, "")
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (corrupted then clean)", res.Attempts)
	}
	if m := c.Metrics(); m.DigestMismatches != 1 {
		t.Fatalf("digest_mismatches = %d, want 1", m.DigestMismatches)
	}
}

func TestHedgeRescuesBlackholedConnection(t *testing.T) {
	// Connection 0 is blackholed: the primary attempt hangs forever.
	// The hedge launches after 50ms onto connection 1 and wins.
	base := chaosStack(t, "rescued", 1, netx.Config{BlackholeAt: []int{0}})
	c := New(Config{
		BaseURL:        base,
		Seed:           3,
		HedgeDelay:     50 * time.Millisecond,
		AttemptTimeout: 10 * time.Second,
	})
	res, err := c.Do(context.Background(), http.MethodGet, "/", nil, "")
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if string(res.Body) != "rescued" {
		t.Fatalf("body = %q", res.Body)
	}
	m := c.Metrics()
	if m.Hedges != 1 || m.HedgesWon != 1 {
		t.Fatalf("hedge metrics: %+v", m)
	}
	if m.Requests != 1 || m.Succeeded != 1 || m.Retries != 0 {
		t.Fatalf("request accounting: %+v", m)
	}
}

func TestTruncatedBodyRetried(t *testing.T) {
	base := chaosStack(t, strings.Repeat("y", 4096), 1, netx.Config{TruncateAt: []int{0}, TruncateAfterBytes: 64})
	c := New(Config{BaseURL: base, Seed: 3, MaxRetries: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	res, err := c.Do(context.Background(), http.MethodGet, "/", nil, "")
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if len(res.Body) != 4096 || res.Attempts != 2 {
		t.Fatalf("len=%d attempts=%d", len(res.Body), res.Attempts)
	}
}
