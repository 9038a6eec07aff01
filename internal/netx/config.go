// Package netx is the network-fault tier of the robustness stack: a
// deterministic, seeded fault-injecting TCP reverse proxy that sits
// between a client and an upstream service (dpmd in this repo) and
// perturbs the byte stream the way real flaky links do — added
// latency and jitter, bandwidth throttling, mid-response connection
// resets, clean truncation, payload corruption, blackholes that never
// answer, and slow-loris stalls.
//
// Everything is derived from (seed, connection index, Config).
// Per-connection decisions are drawn from the same splitmix64 streams
// as internal/faults (one stream per fault kind, keyed by the
// connection's accept index), so a given seed reproduces the exact
// same fault schedule run after run; exact-index lists (ResetAt and
// the other *At fields) force a fault on specific connections
// regardless of the draws.
// Connections are indexed in accept order — with a sequential client
// that disables HTTP keep-alive (internal/client always does, and its
// circuit breaker has no jitter), one connection is one request
// attempt and the schedule is aligned with the client's retry stream.
//
// See docs/robustness.md "Network faults" for the fault semantics.
package netx

import (
	"fmt"
	"math"
)

// Config holds the proxy's fault knobs. The zero value injects
// nothing.
type Config struct {
	// LatencyMS delays the first response byte of every connection.
	LatencyMS float64
	// JitterMS adds a seeded extra delay in [0, JitterMS) on top of
	// LatencyMS, drawn per connection.
	JitterMS float64
	// RateKBps caps the response stream's bandwidth (0 = unlimited).
	RateKBps float64

	// ResetProb is the probability a connection's response is cut by a
	// TCP reset (RST) after ResetAfterBytes of response have been
	// forwarded — the ambiguous failure mode: the request usually
	// reached the upstream and was computed, but the client cannot
	// know, which is exactly what idempotency keys exist for.
	ResetProb float64
	// ResetAt lists exact connection indices reset regardless of the
	// probability draw.
	ResetAt []int
	// ResetAfterBytes is how much response passes before the reset
	// (0 = the default of 64 bytes, mid-headers or early body).
	ResetAfterBytes int64

	// TruncateProb is the probability a response is cleanly closed
	// (FIN) after TruncateAfterBytes of body — the client sees a short
	// body against the announced Content-Length.
	TruncateProb float64
	// TruncateAt lists exact truncated connection indices.
	TruncateAt []int
	// TruncateAfterBytes is how many body bytes pass before the close
	// (0 = the default of 1: cut after the first body byte).
	TruncateAfterBytes int64

	// CorruptProb is the probability one response body byte is
	// XOR-flipped at a seeded offset within the first 32 body bytes —
	// the silent-corruption mode only an end-to-end digest catches.
	CorruptProb float64
	// CorruptAt lists exact corrupted connection indices.
	CorruptAt []int

	// BlackholeProb is the probability the proxy accepts a connection,
	// swallows the request, and never answers — the client's timeout
	// or hedging must recover.
	BlackholeProb float64
	// BlackholeAt lists exact blackholed connection indices.
	BlackholeAt []int

	// StallProb is the probability a response stalls (slow-loris) for
	// StallMS after StallAfterBytes of body have been forwarded, then
	// resumes and completes normally.
	StallProb float64
	// StallAt lists exact stalled connection indices.
	StallAt []int
	// StallMS is the stall length in wall milliseconds (0 = 100).
	StallMS float64
	// StallAfterBytes is how many body bytes pass before the stall.
	StallAfterBytes int64
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate checks the configuration for NaN/Inf and out-of-range
// values.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"latency", c.LatencyMS},
		{"jitter", c.JitterMS},
		{"rate", c.RateKBps},
		{"reset", c.ResetProb},
		{"reset_after", float64(c.ResetAfterBytes)},
		{"truncate", c.TruncateProb},
		{"truncate_after", float64(c.TruncateAfterBytes)},
		{"corrupt", c.CorruptProb},
		{"blackhole", c.BlackholeProb},
		{"stall", c.StallProb},
		{"stall_ms", c.StallMS},
		{"stall_after", float64(c.StallAfterBytes)},
	} {
		if !finite(f.v) {
			return fmt.Errorf("netx: %s is not finite", f.name)
		}
		if f.v < 0 {
			return fmt.Errorf("netx: %s is negative", f.name)
		}
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"reset", c.ResetProb}, {"truncate", c.TruncateProb},
		{"corrupt", c.CorruptProb}, {"blackhole", c.BlackholeProb},
		{"stall", c.StallProb},
	} {
		if p.v > 1 {
			return fmt.Errorf("netx: %s probability %g outside [0,1]", p.name, p.v)
		}
	}
	for _, l := range []struct {
		name string
		at   []int
	}{
		{"reset_at", c.ResetAt}, {"truncate_at", c.TruncateAt},
		{"corrupt_at", c.CorruptAt}, {"blackhole_at", c.BlackholeAt},
		{"stall_at", c.StallAt},
	} {
		for _, i := range l.at {
			if i < 0 {
				return fmt.Errorf("netx: %s holds negative index %d", l.name, i)
			}
		}
	}
	return nil
}
