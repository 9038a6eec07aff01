package client

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
)

// Metrics is the client's own observability: every counter that a
// resilience decision touches. All fields are updated atomically; a
// Snapshot is safe to take at any time. With a fixed seed and a fixed
// request sequence the whole snapshot — transitions included — is
// byte-identical run after run, which is what the soak harness
// asserts.
type Metrics struct {
	requests   atomic.Int64 // logical requests issued through the client
	succeeded  atomic.Int64
	failed     atomic.Int64 // logical requests that exhausted every remedy
	attempts   atomic.Int64 // network attempts (including hedges)
	retries    atomic.Int64 // attempts beyond each request's first
	fastFails  atomic.Int64 // requests rejected instantly by the open breaker
	hedges     atomic.Int64 // hedge attempts launched
	hedgesWon  atomic.Int64 // hedge finished first with a usable response
	hedgesLost atomic.Int64 // primary finished first after a hedge launched
	replays    atomic.Int64 // responses served from the server's idempotency cache
	digestBad  atomic.Int64 // responses discarded for a digest mismatch
	retryAfter atomic.Int64 // backoffs stretched to honor a Retry-After hint
	netErrors  atomic.Int64 // transport-level attempt failures
	httpRetry  atomic.Int64 // retryable HTTP statuses (429/500/502/503/504)
}

// MetricsSnapshot is a point-in-time copy of the counters plus the
// breaker's state and transition log.
type MetricsSnapshot struct {
	Requests           int64    `json:"requests"`
	Succeeded          int64    `json:"succeeded"`
	Failed             int64    `json:"failed"`
	Attempts           int64    `json:"attempts"`
	Retries            int64    `json:"retries"`
	BreakerFastFails   int64    `json:"breaker_fast_fails"`
	BreakerOpens       int64    `json:"breaker_opens"`
	BreakerHalfOpens   int64    `json:"breaker_half_opens"`
	BreakerCloses      int64    `json:"breaker_closes"`
	BreakerState       string   `json:"breaker_state"`
	BreakerTransitions []string `json:"breaker_transitions,omitempty"`
	Hedges             int64    `json:"hedges"`
	HedgesWon          int64    `json:"hedges_won"`
	HedgesLost         int64    `json:"hedges_lost"`
	Replays            int64    `json:"replays"`
	DigestMismatches   int64    `json:"digest_mismatches"`
	RetryAfterHonored  int64    `json:"retry_after_honored"`
	NetErrors          int64    `json:"net_errors"`
	HTTPRetries        int64    `json:"http_retries"`
}

// String renders the snapshot as deterministic key=value lines in
// alphabetical key order — the format dpmctl -metrics prints and the
// soak harness diffs across runs. Each field's key is its json tag;
// numbers print in decimal and the transition log joins with ';'
// ("open@12;half-open@21;closed@22", empty when nothing happened).
func (s MetricsSnapshot) String() string {
	v := reflect.ValueOf(s)
	kv := make(map[string]string, v.NumField())
	for i := 0; i < v.NumField(); i++ {
		key, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		if list, ok := v.Field(i).Interface().([]string); ok {
			kv[key] = strings.Join(list, ";")
		} else {
			kv[key] = fmt.Sprint(v.Field(i).Interface())
		}
	}
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s\n", k, kv[k])
	}
	return b.String()
}
