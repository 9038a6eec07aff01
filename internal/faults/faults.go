// Package faults is the simulator's deterministic fault-injection
// layer: it models the failure modes real disk subsystems exhibit but
// the paper's evaluation assumes away — spin-up attempts that fail
// and must be retried, bad sectors remapped to a spare area whose
// service pays an extra seek, and transient degradation windows
// during which a disk's transfer rate drops.
//
// Everything is derived from a (seed, nDisks, Config) triple. A Plan
// is immutable and all of its queries are pure functions of their
// arguments, so one Plan may be shared by any number of concurrent
// simulations and the same seed yields a byte-identical fault
// schedule at any worker count. Determinism is per decision stream —
// (disk, attempt index), (disk, block), (disk, window index) — not
// per wall-clock event, so two runs that consume the streams in the
// same order (as any single simulation does) see identical faults.
//
// See docs/robustness.md for the fault models, the retry/backoff/
// timeout semantics, and the degraded-mode guarantees.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Config holds the fault-injection knobs. The zero value injects
// nothing (Enabled reports false); construct presets with Preset or
// parse a spec with ParseSpec.
type Config struct {
	// SpinUpFailProb is the probability that one spin-up attempt
	// fails: the platters do not reach full speed, the full spin-up
	// time and energy are spent, and the disk falls back to standby.
	SpinUpFailProb float64
	// MaxRetries bounds the retries after the first failed attempt of
	// one spin-up call. A pre-activation call that exhausts its
	// retries gives up (the disk stays in standby and the next request
	// is served on demand); the on-demand service path instead forces
	// success after MaxRetries failures, so a request is never stuck
	// behind an unlucky stream — the degraded-mode no-deadlock
	// guarantee. At most 64.
	MaxRetries int
	// RetryBackoffMS is the delay before the first retry; it doubles
	// after every failed attempt (exponential backoff). Backoff time
	// is spent at standby power and is charged to the disk. A full
	// cascade's backoff, RetryBackoffMS·(2^MaxRetries − 1), is at most
	// one day.
	RetryBackoffMS float64
	// SpinUpTimeoutMS caps the total duration of one spin-up call's
	// retry cascade: when the next backoff + attempt would exceed it,
	// the call gives up. Zero means no timeout.
	SpinUpTimeoutMS float64

	// BadSectorFrac is the fraction of each disk's blocks that are
	// remapped to the spare area (a seeded per-disk set).
	BadSectorFrac float64
	// RemapPenaltyMS is the extra seek charged when a remapped block
	// is serviced under the average-seek model. Under the
	// distance-aware seek model the penalty is implicit: the request
	// seeks to the spare area near the end of the platter and the
	// head stays there.
	RemapPenaltyMS float64

	// DegradedProb is the probability that any given
	// DegradedPeriodMS-long period of a disk's timeline opens with a
	// degradation window.
	DegradedProb float64
	// DegradedPeriodMS is the recurrence grid of degradation windows.
	DegradedPeriodMS float64
	// DegradedDurMS is the length of one degradation window (at most
	// one per period; must not exceed the period).
	DegradedDurMS float64
	// DegradedFactor multiplies the media-transfer time of requests
	// serviced inside a window (>= 1; 1 disables degradation).
	DegradedFactor float64
}

// Enabled reports whether the configuration injects any fault at all.
func (c Config) Enabled() bool {
	return c.SpinUpFailProb > 0 || c.BadSectorFrac > 0 ||
		(c.DegradedProb > 0 && c.DegradedFactor > 1)
}

// finite reports a usable float: not NaN, not infinite.
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Validate checks the configuration for NaN/Inf and out-of-range
// values.
func (c Config) Validate() error {
	for _, k := range specKeys {
		v, ok := k.Field(&c).(*float64)
		if !ok {
			continue
		}
		if !finite(*v) {
			return fmt.Errorf("faults: %s is not finite", k.Name)
		}
		if *v < 0 {
			return fmt.Errorf("faults: %s is negative", k.Name)
		}
	}
	if c.SpinUpFailProb > 1 {
		return fmt.Errorf("faults: spinup probability %g outside [0,1]", c.SpinUpFailProb)
	}
	if c.BadSectorFrac > 1 {
		return fmt.Errorf("faults: badfrac %g outside [0,1]", c.BadSectorFrac)
	}
	if c.DegradedProb > 1 {
		return fmt.Errorf("faults: degraded probability %g outside [0,1]", c.DegradedProb)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("faults: negative retry bound %d", c.MaxRetries)
	}
	if c.DegradedFactor != 0 && c.DegradedFactor < 1 {
		return fmt.Errorf("faults: slowdown factor %g below 1", c.DegradedFactor)
	}
	if c.DegradedProb > 0 && c.DegradedFactor > 1 {
		if c.DegradedPeriodMS <= 0 || c.DegradedDurMS <= 0 {
			return fmt.Errorf("faults: degradation needs positive period and duration")
		}
		if c.DegradedDurMS > c.DegradedPeriodMS {
			return fmt.Errorf("faults: window duration %g exceeds period %g", c.DegradedDurMS, c.DegradedPeriodMS)
		}
	}
	// A cascade retries in a loop and doubles its backoff each time,
	// and dpmd request bodies reach both knobs.
	if c.MaxRetries > maxRetries {
		return fmt.Errorf("faults: retry bound %d above %d", c.MaxRetries, maxRetries)
	}
	if total := c.RetryBackoffMS * (math.Exp2(float64(c.MaxRetries)) - 1); total > maxCascadeBackoffMS {
		return fmt.Errorf("faults: backoff %g doubled over %d retries totals %g ms, more than a day", c.RetryBackoffMS, c.MaxRetries, total)
	}
	return nil
}

// Bounds on one spin-up call's retry cascade. The presets retry 3-4
// times for at most 7.5 s of backoff.
const (
	maxRetries          = 64
	maxCascadeBackoffMS = 8.64e7 // one day
)

// Preset returns a named severity level. The names are the rows of
// the fault-sensitivity experiment table:
//
//	off       no faults
//	light     2% spin-up failures, 0.01% bad sectors, rare mild slowdowns
//	moderate  10% spin-up failures, 0.1% bad sectors, occasional 4x slowdowns
//	heavy     30% spin-up failures, 0.5% bad sectors, frequent 8x slowdowns
func Preset(name string) (Config, bool) {
	switch name {
	case "off", "none":
		return Config{}, true
	case "light":
		return Config{
			SpinUpFailProb: 0.02, MaxRetries: 3, RetryBackoffMS: 500, SpinUpTimeoutMS: 40000,
			BadSectorFrac: 1e-4, RemapPenaltyMS: 4,
			DegradedProb: 0.05, DegradedPeriodMS: 30000, DegradedDurMS: 5000, DegradedFactor: 2,
		}, true
	case "moderate":
		return Config{
			SpinUpFailProb: 0.10, MaxRetries: 3, RetryBackoffMS: 500, SpinUpTimeoutMS: 40000,
			BadSectorFrac: 1e-3, RemapPenaltyMS: 4,
			DegradedProb: 0.15, DegradedPeriodMS: 30000, DegradedDurMS: 5000, DegradedFactor: 4,
		}, true
	case "heavy":
		return Config{
			SpinUpFailProb: 0.30, MaxRetries: 4, RetryBackoffMS: 500, SpinUpTimeoutMS: 60000,
			BadSectorFrac: 5e-3, RemapPenaltyMS: 4,
			DegradedProb: 0.30, DegradedPeriodMS: 30000, DegradedDurMS: 10000, DegradedFactor: 8,
		}, true
	}
	return Config{}, false
}

// PresetNames returns the preset severities in increasing order.
func PresetNames() []string { return []string{"off", "light", "moderate", "heavy"} }

// SpecKey binds one key of the key=value spec grammar to the field of
// a C it sets. Field returns a pointer to that field: a *float64 takes
// a finite number, a *int or *int64 a base-10 integer.
type SpecKey[C any] struct {
	Name  string
	Field func(*C) any
}

// specKeys is the -faults grammar, in canonical (FormatSpec) order.
var specKeys = []SpecKey[Config]{
	{"spinup", func(c *Config) any { return &c.SpinUpFailProb }},
	{"retries", func(c *Config) any { return &c.MaxRetries }},
	{"backoff", func(c *Config) any { return &c.RetryBackoffMS }},
	{"timeout", func(c *Config) any { return &c.SpinUpTimeoutMS }},
	{"badfrac", func(c *Config) any { return &c.BadSectorFrac }},
	{"remap", func(c *Config) any { return &c.RemapPenaltyMS }},
	{"degraded", func(c *Config) any { return &c.DegradedProb }},
	{"period", func(c *Config) any { return &c.DegradedPeriodMS }},
	{"duration", func(c *Config) any { return &c.DegradedDurMS }},
	{"slowdown", func(c *Config) any { return &c.DegradedFactor }},
}

// ParseSpec parses a fault specification. A spec is either a preset
// name (see Preset) or a list of key=value pairs (see ParseKeys):
//
//	spinup=P     spin-up failure probability per attempt [0,1]
//	retries=N    retry bound per spin-up call (at most 64)
//	backoff=MS   first retry backoff (doubles per retry; the
//	             cascade's total backoff is at most one day)
//	timeout=MS   cap on one call's retry cascade (0 = none)
//	badfrac=P    fraction of blocks remapped [0,1]
//	remap=MS     extra seek per remapped service (average-seek model)
//	degraded=P   probability a period opens a degradation window [0,1]
//	period=MS    degradation window recurrence grid
//	duration=MS  degradation window length
//	slowdown=F   transfer-time multiplier inside a window (>= 1)
//
// A spec is only ever text: reading a spec from a file ("@path" on the
// command line) is the caller's job, so no spec can make the parser
// touch the filesystem. The empty spec is the zero (disabled)
// configuration.
func ParseSpec(spec string) (Config, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return Config{}, nil
	}
	if c, ok := Preset(spec); ok {
		return c, nil
	}
	var c Config
	if err := ParseKeys(spec, specKeys, &c); err != nil {
		return Config{}, fmt.Errorf("faults: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// ParseKeys sets the fields of dst named by the key=value pairs of
// spec. Commas and whitespace separate pairs, newlines included; '#'
// starts a comment that runs to the end of its line; keys match
// case-insensitively. A key absent from keys is an error, reported
// once its value parses as a number.
func ParseKeys[C any](spec string, keys []SpecKey[C], dst *C) error {
	for _, line := range strings.Split(spec, "\n") {
		line, _, _ = strings.Cut(line, "#")
		fields := strings.FieldsFunc(line, func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t' || r == '\r'
		})
		for _, kv := range fields {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("bad spec entry %q (want key=value)", kv)
			}
			if err := setKey(keys, dst, strings.ToLower(strings.TrimSpace(key)), strings.TrimSpace(val)); err != nil {
				return err
			}
		}
	}
	return nil
}

func setKey[C any](keys []SpecKey[C], dst *C, key, val string) error {
	var field any
	for _, k := range keys {
		if k.Name == key {
			field = k.Field(dst)
		}
	}
	switch p := field.(type) {
	case *int:
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("%s: %v", key, err)
		}
		*p = n
		return nil
	case *int64:
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("%s: %v", key, err)
		}
		*p = n
		return nil
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("%s: %v", key, err)
	}
	if !finite(f) {
		return fmt.Errorf("%s is not finite", key)
	}
	p, ok := field.(*float64)
	if !ok {
		names := make([]string, len(keys))
		for i, k := range keys {
			names[i] = k.Name
		}
		sort.Strings(names)
		return fmt.Errorf("unknown spec key %q (have %v)", key, names)
	}
	*p = f
	return nil
}

// FormatSpec renders the configuration as a canonical spec string
// that ParseSpec round-trips. Zero-valued knobs are omitted; the
// zero configuration renders as "off".
func FormatSpec(c Config) string {
	var parts []string
	for _, k := range specKeys {
		switch v := k.Field(&c).(type) {
		case *float64:
			if *v != 0 {
				parts = append(parts, k.Name+"="+strconv.FormatFloat(*v, 'g', -1, 64))
			}
		case *int:
			if *v != 0 {
				parts = append(parts, k.Name+"="+strconv.Itoa(*v))
			}
		}
	}
	if len(parts) == 0 {
		return "off"
	}
	return strings.Join(parts, ",")
}

// Plan is a fault schedule for one disk subsystem, derived entirely
// from (seed, nDisks, Config). It is immutable; every query is a pure
// function, so a Plan is safe for unsynchronized sharing across
// simulations and goroutines.
type Plan struct {
	seed uint64
	n    int
	cfg  Config
}

// New derives a fault plan for nDisks disks. A nil plan (or a
// disabled configuration) is handled by the simulator as
// "no faults".
func New(seed int64, nDisks int, cfg Config) (*Plan, error) {
	if nDisks <= 0 {
		return nil, fmt.Errorf("faults: non-positive disk count %d", nDisks)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Plan{seed: uint64(seed), n: nDisks, cfg: cfg}, nil
}

// Config returns the plan's configuration. The result is read-only:
// the plan is immutable and shared across runs and goroutines. It is
// a pointer so that reading one field does not copy the whole struct.
func (p *Plan) Config() *Config { return &p.cfg }

// NumDisks returns the subsystem size the plan was derived for.
func (p *Plan) NumDisks() int { return p.n }

// Fingerprint returns a canonical string identifying the plan: two
// plans with equal fingerprints produce identical fault schedules.
func (p *Plan) Fingerprint() string {
	return fmt.Sprintf("faults{seed=%d n=%d %s}", p.seed, p.n, FormatSpec(p.cfg))
}

// Decision stream tags, mixed into the hash so the three fault models
// draw from independent streams.
const (
	streamSpinUp uint64 = 0x9e3779b97f4a7c15
	streamRemap  uint64 = 0xbf58476d1ce4e5b9
	streamWindow uint64 = 0x94d049bb133111eb
)

// mix64 is the splitmix64 finalizer: a fast, well-distributed 64-bit
// mixing function.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// draw maps one decision-stream coordinate to a uniform [0,1) float.
func (p *Plan) draw(stream uint64, disk int, k uint64) float64 {
	h := mix64(p.seed ^ stream)
	h = mix64(h ^ (uint64(disk) + 1))
	h = mix64(h ^ (k + 1))
	return float64(h>>11) / (1 << 53)
}

// Uniform maps one (seed, stream, k) coordinate to a deterministic
// uniform [0,1) float through the splitmix64 finalizer — the same
// generator the fault plans draw from, exported so other subsystems
// (for example the serving layer's chaos injector) derive their own
// independent decision streams with identical reproducibility
// guarantees: the same triple always yields the same value, on any
// platform, at any concurrency.
func Uniform(seed int64, stream uint64, k uint64) float64 {
	h := mix64(uint64(seed) ^ stream)
	h = mix64(h ^ (k + 1))
	return float64(h>>11) / (1 << 53)
}

// SpinUpFails reports whether the attempt-th spin-up attempt on the
// given disk fails (attempt indexes every attempt on the disk over a
// run, in simulation order).
func (p *Plan) SpinUpFails(disk, attempt int) bool {
	pr := p.cfg.SpinUpFailProb
	if pr <= 0 {
		return false
	}
	if pr >= 1 {
		return true
	}
	return p.draw(streamSpinUp, disk, uint64(attempt)) < pr
}

// Remapped reports whether the given block of the given disk belongs
// to the seeded bad-sector set (and is therefore served from the
// spare area).
func (p *Plan) Remapped(disk int, block int64) bool {
	pr := p.cfg.BadSectorFrac
	if pr <= 0 || block < 0 {
		return false
	}
	if pr >= 1 {
		return true
	}
	return p.draw(streamRemap, disk, uint64(block)) < pr
}

// RemapTarget maps a remapped logical block to its spare-area
// physical block on a disk of maxBlocks blocks. The spare area is the
// last 1/16th of the platter, so distance-aware seeks pay a real
// head excursion.
func (p *Plan) RemapTarget(block, maxBlocks int64) int64 {
	if maxBlocks <= 1 {
		return 0
	}
	spare := maxBlocks - maxBlocks/16
	span := maxBlocks - spare
	if span <= 0 {
		spare, span = maxBlocks-1, 1
	}
	return spare + block%span
}

// Degraded reports the transfer-time multiplier in effect on the
// given disk at time tMS (1 when the disk is healthy) and, when
// degraded, the time the current window ends.
func (p *Plan) Degraded(disk int, tMS float64) (factor, untilMS float64) {
	c := &p.cfg
	if c.DegradedProb <= 0 || c.DegradedFactor <= 1 || c.DegradedPeriodMS <= 0 || tMS < 0 {
		return 1, 0
	}
	k := math.Floor(tMS / c.DegradedPeriodMS)
	if p.draw(streamWindow, disk, uint64(k)) >= c.DegradedProb {
		return 1, 0
	}
	start := k * c.DegradedPeriodMS
	if tMS < start+c.DegradedDurMS {
		return c.DegradedFactor, start + c.DegradedDurMS
	}
	return 1, 0
}
