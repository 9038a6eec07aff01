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
// same fault schedule run after run; exact-index lists (reset_at=...)
// force a fault on specific connections regardless of the draws.
// Connections are indexed in accept order — with a sequential client
// that disables HTTP keep-alive (internal/client's default), one
// connection is one request attempt and the schedule is aligned with
// the client's retry stream.
//
// See docs/robustness.md "Network faults" for the spec grammar and
// the fault semantics.
package netx

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Config holds the proxy's fault knobs. The zero value injects
// nothing (Enabled reports false); construct presets with Preset or
// parse a spec with ParseSpec.
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

// Enabled reports whether the configuration injects any fault at all.
func (c Config) Enabled() bool {
	return c.LatencyMS > 0 || c.JitterMS > 0 || c.RateKBps > 0 ||
		c.ResetProb > 0 || len(c.ResetAt) > 0 ||
		c.TruncateProb > 0 || len(c.TruncateAt) > 0 ||
		c.CorruptProb > 0 || len(c.CorruptAt) > 0 ||
		c.BlackholeProb > 0 || len(c.BlackholeAt) > 0 ||
		c.StallProb > 0 || len(c.StallAt) > 0
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

// Preset returns a named severity level, mirroring the faults-package
// convention (off/light/moderate/heavy).
func Preset(name string) (Config, bool) {
	switch name {
	case "off", "none":
		return Config{}, true
	case "light":
		return Config{
			LatencyMS: 1, JitterMS: 2,
			ResetProb: 0.02, TruncateProb: 0.01, CorruptProb: 0.01,
		}, true
	case "moderate":
		return Config{
			LatencyMS: 2, JitterMS: 5, RateKBps: 5000,
			ResetProb: 0.05, TruncateProb: 0.03, CorruptProb: 0.03,
			StallProb: 0.05, StallMS: 50,
		}, true
	case "heavy":
		return Config{
			LatencyMS: 3, JitterMS: 8, RateKBps: 2000,
			ResetProb: 0.12, TruncateProb: 0.08, CorruptProb: 0.08,
			StallProb: 0.10, StallMS: 80,
		}, true
	}
	return Config{}, false
}

// PresetNames returns the preset severities in increasing order.
func PresetNames() []string { return []string{"off", "light", "moderate", "heavy"} }

// specKeys lists the spec grammar's keys in canonical output order
// (FormatSpec).
var specKeys = []string{
	"latency", "jitter", "rate",
	"reset", "reset_at", "reset_after",
	"truncate", "truncate_at", "truncate_after",
	"corrupt", "corrupt_at",
	"blackhole", "blackhole_at",
	"stall", "stall_at", "stall_ms", "stall_after",
}

// ParseSpec parses a network-fault specification. The grammar matches
// the -faults one: a preset name (see Preset) or a comma/whitespace-
// separated list of key=value pairs, with optional '#' comments. The
// spec is only ever text; the parser never reads files. Index lists
// use ':' between entries (commas split pairs):
//
//	latency=MS         fixed delay before the first response byte
//	jitter=MS          seeded extra delay in [0,jitter) per connection
//	rate=KBPS          response bandwidth cap
//	reset=P            probability of a mid-response TCP reset [0,1]
//	reset_at=I:J:K     exact connection indices reset
//	reset_after=BYTES  response bytes forwarded before the reset
//	truncate=P         probability of a clean mid-body close [0,1]
//	truncate_at=I:J    exact truncated connection indices
//	truncate_after=N   body bytes forwarded before the close
//	corrupt=P          probability of a flipped body byte [0,1]
//	corrupt_at=I:J     exact corrupted connection indices
//	blackhole=P        probability the response never comes [0,1]
//	blackhole_at=I:J   exact blackholed connection indices
//	stall=P            probability of a mid-body slow-loris stall [0,1]
//	stall_at=I:J       exact stalled connection indices
//	stall_ms=MS        stall length
//	stall_after=N      body bytes forwarded before the stall
//
// The empty spec is the zero (disabled) configuration.
func ParseSpec(spec string) (Config, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return Config{}, nil
	}
	if c, ok := Preset(spec); ok {
		return c, nil
	}
	return parsePairs(spec)
}

func parsePairs(text string) (Config, error) {
	var c Config
	var clean strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		clean.WriteString(line)
		clean.WriteByte(' ')
	}
	fields := strings.FieldsFunc(clean.String(), func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t' || r == '\r'
	})
	for _, kv := range fields {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Config{}, fmt.Errorf("netx: bad spec entry %q (want key=value)", kv)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		if strings.HasSuffix(key, "_at") {
			at, err := parseIndexList(val)
			if err != nil {
				return Config{}, fmt.Errorf("netx: %s: %v", key, err)
			}
			switch key {
			case "reset_at":
				c.ResetAt = at
			case "truncate_at":
				c.TruncateAt = at
			case "corrupt_at":
				c.CorruptAt = at
			case "blackhole_at":
				c.BlackholeAt = at
			case "stall_at":
				c.StallAt = at
			default:
				return Config{}, unknownKey(key)
			}
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return Config{}, fmt.Errorf("netx: %s: %v", key, err)
		}
		if !finite(f) {
			return Config{}, fmt.Errorf("netx: %s is not finite", key)
		}
		switch key {
		case "latency":
			c.LatencyMS = f
		case "jitter":
			c.JitterMS = f
		case "rate":
			c.RateKBps = f
		case "reset":
			c.ResetProb = f
		case "reset_after":
			c.ResetAfterBytes = int64(f)
		case "truncate":
			c.TruncateProb = f
		case "truncate_after":
			c.TruncateAfterBytes = int64(f)
		case "corrupt":
			c.CorruptProb = f
		case "blackhole":
			c.BlackholeProb = f
		case "stall":
			c.StallProb = f
		case "stall_ms":
			c.StallMS = f
		case "stall_after":
			c.StallAfterBytes = int64(f)
		default:
			return Config{}, unknownKey(key)
		}
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

func unknownKey(key string) error {
	keys := append([]string(nil), specKeys...)
	sort.Strings(keys)
	return fmt.Errorf("netx: unknown spec key %q (have %v)", key, keys)
}

// parseIndexList parses a ':'-separated list of non-negative
// connection indices, returning them sorted and deduplicated.
func parseIndexList(val string) ([]int, error) {
	if strings.TrimSpace(val) == "" {
		return nil, fmt.Errorf("empty index list")
	}
	seen := map[int]bool{}
	var out []int
	for _, part := range strings.Split(val, ":") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, fmt.Errorf("negative index %d", n)
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out, nil
}

// FormatSpec renders the configuration as a canonical spec string
// that ParseSpec round-trips. Zero-valued knobs are omitted; the zero
// configuration renders as "off".
func FormatSpec(c Config) string {
	vals := map[string]float64{
		"latency": c.LatencyMS, "jitter": c.JitterMS, "rate": c.RateKBps,
		"reset": c.ResetProb, "reset_after": float64(c.ResetAfterBytes),
		"truncate": c.TruncateProb, "truncate_after": float64(c.TruncateAfterBytes),
		"corrupt":   c.CorruptProb,
		"blackhole": c.BlackholeProb,
		"stall":     c.StallProb, "stall_ms": c.StallMS, "stall_after": float64(c.StallAfterBytes),
	}
	ats := map[string][]int{
		"reset_at": c.ResetAt, "truncate_at": c.TruncateAt,
		"corrupt_at": c.CorruptAt, "blackhole_at": c.BlackholeAt,
		"stall_at": c.StallAt,
	}
	var parts []string
	for _, k := range specKeys {
		if at, ok := ats[k]; ok {
			if len(at) > 0 {
				strs := make([]string, len(at))
				for i, n := range at {
					strs[i] = strconv.Itoa(n)
				}
				parts = append(parts, k+"="+strings.Join(strs, ":"))
			}
			continue
		}
		if v := vals[k]; v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%s", k, strconv.FormatFloat(v, 'g', -1, 64)))
		}
	}
	if len(parts) == 0 {
		return "off"
	}
	return strings.Join(parts, ",")
}
