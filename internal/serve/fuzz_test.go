package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"

	"sdpm/internal/core"
	"sdpm/internal/faults"
	"sdpm/internal/workloads"
)

// FuzzParseChaos checks the -chaos parser never panics and never
// accepts a spec the stall and panic draws cannot use: probabilities
// must be finite and in [0,1], and the stall must fit a time.Duration.
func FuzzParseChaos(f *testing.F) {
	for _, seed := range []string{
		"", "off", "seed=9,stall=0.25,stall_ms=50,panic=0.1",
		"# soak\nseed=3 stall=0.5", "Stall=0.5", "seed=-7, STALL_MS=2.5e3",
		"stall=NaN", "panic=NaN", "stall_ms=Inf", "stall_ms=1e300",
		"stall_ms=9223372036854", "seed=1e30", "seed=1.5",
		"seed=9007199254740993", "zap=1", "stall", "@/etc/hostname",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseChaos(spec)
		if err != nil || c == nil {
			return
		}
		// No key starts with '@', so "@path" is never a valid spec.
		if strings.HasPrefix(strings.TrimSpace(spec), "@") {
			t.Fatalf("accepted @-spec %q", spec)
		}
		for _, p := range []float64{c.StallProb, c.PanicProb} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("ParseChaos(%q) accepted probability %g", spec, p)
			}
		}
		if ns := c.StallMS * float64(time.Millisecond); !(ns >= 0 && ns < math.MaxInt64) {
			t.Fatalf("ParseChaos(%q) accepted stall_ms %g, outside a time.Duration", spec, c.StallMS)
		}
	})
}

// FuzzServeRequest sends an arbitrary /v1/sim body, Idempotency-Key
// and ?timeout= through one server's handler. Every response must be
// a typed error whose status is its kind's, or a 200 whose
// X-Sdpm-Digest matches its body; and no sequence of requests may
// grow the instance cache past one preparation per benchmark.
func FuzzServeRequest(f *testing.F) {
	benches, presets := workloads.Names(), faults.PresetNames()
	for i, scheme := range core.AllSchemes() {
		body := fmt.Sprintf(`{"bench":%q,"scheme":%q,"faults":%q,"fault_seed":%d}`,
			benches[i%len(benches)], scheme, presets[i%len(presets)], i)
		f.Add(body, fmt.Sprintf("key-%d", i), "")
	}
	f.Add(`{"bench":"swim","scheme":"drpm","audit":true}`, "", "30s")
	f.Add(`{"bench":"mesa","faults":"spinup=0.5,retries=3","fault_seed":-9}`, "key-0", "1ns")
	f.Add(`{"bench":"swim"}`, strings.Repeat("k", 257), "")
	f.Add(`{"bench":`, "", "banana")

	s, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	kinds := []Kind{KindValidation, KindOverload, KindDeadline, KindCanceled,
		KindConflict, KindTooLarge, KindUnavailable, KindInternal}
	f.Fuzz(func(t *testing.T, body, key, timeout string) {
		target := "/v1/sim"
		if timeout != "" {
			target += "?" + url.Values{"timeout": {timeout}}.Encode()
		}
		r := httptest.NewRequest("POST", target, strings.NewReader(body))
		if key != "" {
			r.Header.Set("Idempotency-Key", key)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code == http.StatusOK {
			sum := sha256.Sum256(w.Body.Bytes())
			if got, want := w.Header().Get("X-Sdpm-Digest"), "sha256="+hex.EncodeToString(sum[:]); got != want {
				t.Fatalf("200 digest %q, body hashes to %q", got, want)
			}
		} else {
			var b errBody
			if err := json.Unmarshal(w.Body.Bytes(), &b); err != nil || !slices.Contains(kinds, b.Error.Kind) {
				t.Fatalf("status %d without a typed error envelope: %s", w.Code, w.Body.String())
			}
			if want := (&Error{Kind: b.Error.Kind}).HTTPStatus(); w.Code != want {
				t.Fatalf("kind %q answered with status %d, want %d", b.Error.Kind, w.Code, want)
			}
		}
		if n := s.cache.Len(); n > len(s.benchmarks) {
			t.Fatalf("the instance cache holds %d entries, more than the %d benchmarks", n, len(s.benchmarks))
		}
	})
}
