// Package client is the resilient Go client for the dpmd API: it
// wraps every request in capped exponential backoff with full seeded
// jitter, honors the server's Retry-After hints, generates an
// Idempotency-Key per logical request so retries after ambiguous
// network failures are provably byte-identical replays instead of
// duplicated work, verifies the server's end-to-end response digest
// (catching silent payload corruption on the wire), trips a
// deterministic circuit breaker when the service is down, and can
// hedge slow requests with a second identical attempt for tail
// latency.
//
// Determinism is a design constraint, not an accident: backoff jitter
// and idempotency keys are splitmix64 draws keyed by the client's seed
// and request or attempt sequence, the breaker schedule has no jitter
// and counts calls rather than wall time, every attempt opens a fresh
// connection (keep-alive is always off), and hedges reuse the
// primary's idempotency key. For a fixed seed and a fixed fault
// schedule (see internal/netx) the full metrics snapshot — retries,
// breaker transitions, hedges won and lost — is identical run after
// run, which is exactly what tools/soaksmoke proves end to end.
//
// cmd/dpmctl is the CLI over this package; docs/serving.md documents
// the client contract.
package client

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sdpm/internal/faults"
)

const (
	streamBackoff = 0x636c69656e740a02
	streamIdemKey = 0x636c69656e740a03
)

// Config tunes the client. The zero value (plus a BaseURL) is usable:
// New fills every unset field with the defaults below.
type Config struct {
	// BaseURL is the dpmd endpoint, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Seed drives the backoff jitter and idempotency-key generation;
	// the breaker has no jitter. Clients with the same seed and
	// request sequence behave identically; give fleet members
	// distinct seeds.
	Seed int64
	// MaxRetries is how many extra attempts a logical request gets
	// beyond its first (0 = 4; negative = none).
	MaxRetries int
	// BaseBackoff is the cap of the first retry's jittered sleep; the
	// cap doubles per retry (0 = 50ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff growth (0 = 2s).
	MaxBackoff time.Duration
	// AttemptTimeout bounds one network attempt (0 = 30s). The
	// per-request context bounds the whole retry loop.
	AttemptTimeout time.Duration
	// HedgeDelay, when positive, launches a second identical attempt
	// (same idempotency key, so the server coalesces) if the first has
	// not finished within the delay; the first usable response wins.
	HedgeDelay time.Duration
	// DisableDigestCheck turns off verification of the server's
	// X-Sdpm-Digest response header.
	DisableDigestCheck bool
	// Breaker tunes the circuit breaker.
	Breaker BreakerConfig
	// Transport overrides the HTTP transport (tests).
	Transport http.RoundTripper
}

func (c *Config) complete() {
	if c.MaxRetries == 0 {
		c.MaxRetries = 4
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 30 * time.Second
	}
}

// Client is the resilient dpmd client. Create with New; safe for
// concurrent use, though determinism guarantees assume a sequential
// request stream.
type Client struct {
	cfg    Config
	http   *http.Client
	brk    *breaker
	met    Metrics
	reqSeq atomic.Uint64 // logical request counter: keys idempotency
	attSeq atomic.Uint64 // attempt counter: keys backoff jitter
	sleep  func(ctx context.Context, d time.Duration) error
}

// New builds a client.
func New(cfg Config) *Client {
	cfg.complete()
	tr := cfg.Transport
	if tr == nil {
		// Keep-alive is off: a fresh connection per attempt keeps
		// connection-indexed fault schedules (internal/netx) aligned
		// with attempt order.
		tr = &http.Transport{DisableKeepAlives: true}
	}
	return &Client{
		cfg:   cfg,
		http:  &http.Client{Transport: tr},
		brk:   newBreaker(cfg.Breaker),
		sleep: sleepCtx,
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Metrics returns a snapshot of the client's counters and breaker
// state.
func (c *Client) Metrics() MetricsSnapshot {
	state, opens, halfOpens, closes, transitions := c.brk.snapshot()
	return MetricsSnapshot{
		Requests:           c.met.requests.Load(),
		Succeeded:          c.met.succeeded.Load(),
		Failed:             c.met.failed.Load(),
		Attempts:           c.met.attempts.Load(),
		Retries:            c.met.retries.Load(),
		BreakerFastFails:   c.met.fastFails.Load(),
		BreakerOpens:       opens,
		BreakerHalfOpens:   halfOpens,
		BreakerCloses:      closes,
		BreakerState:       state,
		BreakerTransitions: transitions,
		Hedges:             c.met.hedges.Load(),
		HedgesWon:          c.met.hedgesWon.Load(),
		HedgesLost:         c.met.hedgesLost.Load(),
		Replays:            c.met.replays.Load(),
		DigestMismatches:   c.met.digestBad.Load(),
		RetryAfterHonored:  c.met.retryAfter.Load(),
		NetErrors:          c.met.netErrors.Load(),
		HTTPRetries:        c.met.httpRetry.Load(),
	}
}

// Result is one successful response.
type Result struct {
	Status   int
	Body     []byte
	Header   http.Header
	Replayed bool // served from the server's idempotency cache
	Attempts int  // network attempts this logical request used
}

// APIError is a typed, non-retryable-or-exhausted HTTP failure: the
// server answered with the serve error envelope.
type APIError struct {
	Status     int
	Kind       string
	Msg        string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d (%s): %s", e.Status, e.Kind, e.Msg)
}

// DigestError reports a response whose body did not match the
// server's X-Sdpm-Digest header — the payload was corrupted in
// flight.
type DigestError struct{ Want, Got string }

func (e *DigestError) Error() string {
	return fmt.Sprintf("client: response digest mismatch (want %s, got %s)", e.Want, e.Got)
}

// BreakerOpenError reports a request rejected instantly because the
// circuit breaker is open.
type BreakerOpenError struct{}

func (e *BreakerOpenError) Error() string {
	return "client: circuit breaker open; request rejected without a network attempt"
}

// ExhaustedError reports a logical request that failed every attempt.
type ExhaustedError struct {
	Attempts int
	Last     error
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("client: request failed after %d attempts: %v", e.Attempts, e.Last)
}
func (e *ExhaustedError) Unwrap() error { return e.Last }

// attemptError is an internal classified failure.
type attemptError struct {
	err        error
	retryable  bool
	breakerHit bool // counts toward the breaker's failure streak
	definitive bool // the server answered (any HTTP response arrived)
	retryAfter time.Duration
}

// Do issues one logical request with the full resilience stack and
// returns the first usable response. POST requests automatically
// carry a deterministic Idempotency-Key (unless idemKey overrides
// it), so every retry and hedge is a provably identical replay
// candidate on the server.
func (c *Client) Do(ctx context.Context, method, path string, body []byte, idemKey string) (*Result, error) {
	c.met.requests.Add(1)
	reqIdx := c.reqSeq.Add(1) - 1
	if method == http.MethodPost && idemKey == "" {
		idemKey = c.idemKey(reqIdx)
	}
	if !c.brk.allow() {
		c.met.fastFails.Add(1)
		c.met.failed.Add(1)
		return nil, &BreakerOpenError{}
	}
	var (
		attempts int
		last     *attemptError
	)
	for try := 0; ; try++ {
		if try > 0 {
			// Re-consult the breaker for the retry (the first attempt
			// consumed the pre-loop allow).
			if !c.brk.allow() {
				c.met.fastFails.Add(1)
				break
			}
		}
		attempts++
		res, aerr := c.attempt(ctx, method, path, body, idemKey)
		if aerr == nil {
			c.brk.success()
			c.met.succeeded.Add(1)
			res.Attempts = attempts
			return res, nil
		}
		// Every attempt outcome resolves the breaker exactly once: a
		// half-open probe left unresolved would reject every future
		// request forever.
		if aerr.breakerHit {
			c.brk.failure()
		} else if aerr.retryable || aerr.definitive {
			// A non-breaker failure the server answered (429, any 4xx)
			// still proves it alive; reset the consecutive-failure
			// streak and let a pending probe count as successful.
			c.brk.success()
		} else {
			// Nothing proven about the server (request-build error,
			// caller cancellation): release a pending probe without
			// counting a success or failure.
			c.brk.abort()
		}
		last = aerr
		if !aerr.retryable || try >= c.cfg.MaxRetries || ctx.Err() != nil {
			break
		}
		c.met.retries.Add(1)
		d := c.backoff(try, aerr.retryAfter)
		if err := c.sleep(ctx, d); err != nil {
			break
		}
	}
	c.met.failed.Add(1)
	if last == nil {
		return nil, &ExhaustedError{Attempts: attempts, Last: errors.New("breaker opened mid-request")}
	}
	if !last.retryable {
		return nil, last.err
	}
	return nil, &ExhaustedError{Attempts: attempts, Last: last.err}
}

// idemKey derives the deterministic idempotency key for the reqIdx-th
// logical request of this client instance.
func (c *Client) idemKey(reqIdx uint64) string {
	// Two independent draws give 106 bits of key space; deterministic
	// per (seed, request index) so a restarted identical run replays
	// the same keys — which is what makes soak runs comparable.
	a := uint64(faults.Uniform(c.cfg.Seed, streamIdemKey, 2*reqIdx) * (1 << 53))
	b := uint64(faults.Uniform(c.cfg.Seed, streamIdemKey, 2*reqIdx+1) * (1 << 53))
	return fmt.Sprintf("sdpm-%013x%014x", a, b)
}

// backoff computes the try-th retry's sleep: full jitter under a
// doubling cap, stretched to honor a Retry-After hint.
func (c *Client) backoff(try int, retryAfter time.Duration) time.Duration {
	shift := try
	if shift < 0 {
		shift = 0
	} else if shift > 30 {
		shift = 30 // past this the cap below always applies
	}
	ceil := c.cfg.BaseBackoff << shift
	if ceil > c.cfg.MaxBackoff || ceil <= 0 {
		ceil = c.cfg.MaxBackoff
	}
	seq := c.attSeq.Add(1) - 1
	d := time.Duration(faults.Uniform(c.cfg.Seed, streamBackoff, seq) * float64(ceil))
	if retryAfter > 0 {
		c.met.retryAfter.Add(1)
		if d < retryAfter {
			d = retryAfter
		}
	}
	return d
}

// attempt runs one network attempt, hedged when configured: if the
// primary has not finished within HedgeDelay, an identical request
// (same idempotency key) races it and the first usable response wins.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, idemKey string) (*Result, *attemptError) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()

	type outcome struct {
		res    *Result
		err    *attemptError
		hedged bool
	}
	ch := make(chan outcome, 2)
	send := func(hedged bool) {
		res, err := c.send(actx, method, path, body, idemKey)
		ch <- outcome{res, err, hedged}
	}
	go send(false)

	var hedgeLaunched bool
	var timer *time.Timer
	var hedgeC <-chan time.Time
	if c.cfg.HedgeDelay > 0 {
		timer = time.NewTimer(c.cfg.HedgeDelay)
		defer timer.Stop()
		hedgeC = timer.C
	}

	var first *outcome
	pending := 1
	for pending > 0 {
		select {
		case <-hedgeC:
			hedgeC = nil
			hedgeLaunched = true
			c.met.hedges.Add(1)
			pending++
			go send(true)
		case o := <-ch:
			pending--
			if o.err == nil {
				// First usable response wins; cancel the loser and wait
				// for it synchronously (it unblocks immediately on the
				// cancel) so the metrics are settled when Do returns.
				if hedgeLaunched {
					if o.hedged {
						c.met.hedgesWon.Add(1)
					} else {
						c.met.hedgesLost.Add(1)
					}
				}
				cancel()
				for ; pending > 0; pending-- {
					<-ch
				}
				return o.res, nil
			}
			if first == nil {
				first = &o
			}
			// A failure with a hedge still pending: wait for the other
			// side before giving up on the attempt.
		}
	}
	// Both (or the only) attempt failed; report the first failure.
	if actx.Err() != nil && ctx.Err() == nil && first != nil && !first.err.retryable {
		// The attempt timeout fired (not the caller's context): that
		// is a retryable condition whatever the inner error looked
		// like.
		first.err.retryable = true
		first.err.breakerHit = true
	}
	return nil, first.err
}

// send performs one HTTP exchange and classifies the outcome.
func (c *Client) send(ctx context.Context, method, path string, body []byte, idemKey string) (*Result, *attemptError) {
	c.met.attempts.Add(1)
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(c.cfg.BaseURL, "/")+path, rd)
	if err != nil {
		return nil, &attemptError{err: err, retryable: false}
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		// Transport-level failure: reset, refused, timeout, EOF. A
		// canceled attempt context — a hedge winner already returned,
		// or the caller gave up — is a cancellation artifact, not a
		// network fault: it must not inflate NetErrors or touch the
		// breaker.
		if errors.Is(ctx.Err(), context.Canceled) {
			return nil, &attemptError{err: err, retryable: false}
		}
		c.met.netErrors.Add(1)
		retryable := ctx.Err() == nil || errors.Is(ctx.Err(), context.DeadlineExceeded)
		return nil, &attemptError{err: err, retryable: retryable, breakerHit: retryable}
	}
	defer resp.Body.Close()
	data, rerr := io.ReadAll(resp.Body)
	if rerr != nil {
		rerr = fmt.Errorf("client: reading response: %w", rerr)
		// Same cancellation-artifact rule as above for a read cut short
		// by a hedge winner or the caller.
		if errors.Is(ctx.Err(), context.Canceled) {
			return nil, &attemptError{err: rerr, retryable: false}
		}
		// Truncation, mid-body reset, or a corrupted chunk boundary.
		c.met.netErrors.Add(1)
		return nil, &attemptError{err: rerr, retryable: true, breakerHit: true}
	}
	if resp.StatusCode >= 400 {
		apiErr := decodeAPIError(resp, data)
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			// Overload shedding: server alive, back off and retry.
			c.met.httpRetry.Add(1)
			return nil, &attemptError{err: apiErr, retryable: true, definitive: true, retryAfter: apiErr.RetryAfter}
		case http.StatusInternalServerError, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			c.met.httpRetry.Add(1)
			return nil, &attemptError{err: apiErr, retryable: true, breakerHit: true, definitive: true, retryAfter: apiErr.RetryAfter}
		default:
			// 400/404/409/413...: the request itself is wrong; the
			// service answered definitively. Terminal, not a breaker
			// failure — but it does resolve a half-open probe (Do maps
			// definitive to brk.success).
			return nil, &attemptError{err: apiErr, retryable: false, definitive: true}
		}
	}
	if !c.cfg.DisableDigestCheck {
		if want := resp.Header.Get("X-Sdpm-Digest"); strings.HasPrefix(want, "sha256=") {
			sum := sha256.Sum256(data)
			got := "sha256=" + hex.EncodeToString(sum[:])
			if got != want {
				c.met.digestBad.Add(1)
				return nil, &attemptError{err: &DigestError{Want: want, Got: got}, retryable: true, breakerHit: true, definitive: true}
			}
		}
	}
	res := &Result{
		Status:   resp.StatusCode,
		Body:     data,
		Header:   resp.Header,
		Replayed: resp.Header.Get("Idempotency-Replayed") == "true",
	}
	if res.Replayed {
		c.met.replays.Add(1)
	}
	return res, nil
}

// decodeAPIError parses the serve error envelope, falling back to the
// raw body.
func decodeAPIError(resp *http.Response, data []byte) *APIError {
	e := &APIError{Status: resp.StatusCode, Msg: strings.TrimSpace(string(data))}
	var env struct {
		Error struct {
			Kind    string `json:"kind"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if json.Unmarshal(data, &env) == nil && env.Error.Kind != "" {
		e.Kind = env.Error.Kind
		e.Msg = env.Error.Message
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}
