package faults

import (
	"math"
	"strings"
	"testing"
)

func mustPlan(t *testing.T, seed int64, n int, cfg Config) *Plan {
	t.Helper()
	p, err := New(seed, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDeterminism: two plans built from the same triple agree on every
// decision; a different seed disagrees somewhere.
func TestDeterminism(t *testing.T) {
	cfg, _ := Preset("moderate")
	a := mustPlan(t, 42, 8, cfg)
	b := mustPlan(t, 42, 8, cfg)
	c := mustPlan(t, 43, 8, cfg)
	var diff bool
	for d := 0; d < 8; d++ {
		for k := 0; k < 200; k++ {
			if a.SpinUpFails(d, k) != b.SpinUpFails(d, k) {
				t.Fatalf("spin-up decision (%d,%d) differs for equal seeds", d, k)
			}
			if a.Remapped(d, int64(k)) != b.Remapped(d, int64(k)) {
				t.Fatalf("remap decision (%d,%d) differs for equal seeds", d, k)
			}
			fa, ua := a.Degraded(d, float64(k)*1000)
			fb, ub := b.Degraded(d, float64(k)*1000)
			if fa != fb || ua != ub {
				t.Fatalf("degradation (%d,%d) differs for equal seeds", d, k)
			}
			if a.SpinUpFails(d, k) != c.SpinUpFails(d, k) {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("seeds 42 and 43 produced identical spin-up streams")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("fingerprints differ: %q vs %q", a.Fingerprint(), b.Fingerprint())
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different seeds share a fingerprint")
	}
}

// TestStreamIndependence: the three decision streams must not be
// correlated copies of each other.
func TestStreamIndependence(t *testing.T) {
	cfg := Config{SpinUpFailProb: 0.5, BadSectorFrac: 0.5, DegradedProb: 0.5,
		DegradedPeriodMS: 1000, DegradedDurMS: 500, DegradedFactor: 2}
	p := mustPlan(t, 7, 1, cfg)
	same := 0
	const n = 512
	for k := 0; k < n; k++ {
		if p.SpinUpFails(0, k) == p.Remapped(0, int64(k)) {
			same++
		}
	}
	// Independent fair coins agree ~50% of the time; identical streams
	// agree 100%.
	if same < n/4 || same > 3*n/4 {
		t.Fatalf("spin-up and remap streams look correlated: %d/%d agreements", same, n)
	}
}

func TestSpinUpFailsExtremes(t *testing.T) {
	off := mustPlan(t, 1, 2, Config{})
	always := mustPlan(t, 1, 2, Config{SpinUpFailProb: 1})
	for k := 0; k < 50; k++ {
		if off.SpinUpFails(0, k) {
			t.Fatal("p=0 produced a failure")
		}
		if !always.SpinUpFails(0, k) {
			t.Fatal("p=1 produced a success")
		}
	}
}

func TestSpinUpFailureRate(t *testing.T) {
	cfg := Config{SpinUpFailProb: 0.3}
	p := mustPlan(t, 99, 4, cfg)
	fails := 0
	const n = 20000
	for k := 0; k < n; k++ {
		if p.SpinUpFails(1, k) {
			fails++
		}
	}
	got := float64(fails) / n
	if math.Abs(got-0.3) > 0.02 {
		t.Fatalf("empirical failure rate %.3f far from configured 0.3", got)
	}
}

func TestRemapTargetInSpareArea(t *testing.T) {
	p := mustPlan(t, 1, 1, Config{BadSectorFrac: 0.5})
	const maxBlocks = int64(1 << 20)
	spare := maxBlocks - maxBlocks/16
	for _, block := range []int64{0, 1, 12345, maxBlocks - 1, maxBlocks * 3} {
		tgt := p.RemapTarget(block, maxBlocks)
		if tgt < spare || tgt >= maxBlocks {
			t.Fatalf("RemapTarget(%d) = %d outside spare area [%d,%d)", block, tgt, spare, maxBlocks)
		}
	}
	// Degenerate platters must not divide by zero or escape the disk.
	for _, mb := range []int64{0, 1, 2, 15} {
		tgt := p.RemapTarget(7, mb)
		if mb > 0 && (tgt < 0 || tgt >= mb) {
			t.Fatalf("RemapTarget(7, %d) = %d out of range", mb, tgt)
		}
	}
}

func TestDegradedWindows(t *testing.T) {
	cfg := Config{DegradedProb: 1, DegradedPeriodMS: 1000, DegradedDurMS: 250, DegradedFactor: 4}
	p := mustPlan(t, 5, 1, cfg)
	// Every period opens a window covering its first 250 ms.
	for _, tc := range []struct {
		t      float64
		factor float64
		until  float64
	}{
		{0, 4, 250},
		{249.9, 4, 250},
		{250, 1, 0},
		{999, 1, 0},
		{1000, 4, 1250},
		{1100, 4, 1250},
		{1300, 1, 0},
	} {
		f, until := p.Degraded(0, tc.t)
		if f != tc.factor || until != tc.until {
			t.Errorf("Degraded(0, %g) = (%g, %g), want (%g, %g)", tc.t, f, until, tc.factor, tc.until)
		}
	}
	// Negative time and disabled configurations are healthy.
	if f, _ := p.Degraded(0, -1); f != 1 {
		t.Fatal("negative time reported degradation")
	}
	healthy := mustPlan(t, 5, 1, Config{})
	if f, _ := healthy.Degraded(0, 100); f != 1 {
		t.Fatal("zero config reported degradation")
	}
}

func TestPresets(t *testing.T) {
	for _, name := range PresetNames() {
		c, ok := Preset(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("preset %q invalid: %v", name, err)
		}
		if name == "off" && c.Enabled() {
			t.Fatal("off preset injects faults")
		}
		if name != "off" && !c.Enabled() {
			t.Fatalf("preset %q injects nothing", name)
		}
	}
	if _, ok := Preset("catastrophic"); ok {
		t.Fatal("unknown preset accepted")
	}
}

func TestValidateTable(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	valid, _ := Preset("light")
	mod := func(f func(*Config)) Config { c := valid; f(&c); return c }
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero", Config{}, true},
		{"light", valid, true},
		{"nan prob", mod(func(c *Config) { c.SpinUpFailProb = nan }), false},
		{"inf backoff", mod(func(c *Config) { c.RetryBackoffMS = inf }), false},
		{"neg inf timeout", mod(func(c *Config) { c.SpinUpTimeoutMS = math.Inf(-1) }), false},
		{"nan badfrac", mod(func(c *Config) { c.BadSectorFrac = nan }), false},
		{"nan slowdown", mod(func(c *Config) { c.DegradedFactor = nan }), false},
		{"negative remap", mod(func(c *Config) { c.RemapPenaltyMS = -1 }), false},
		{"prob above one", mod(func(c *Config) { c.SpinUpFailProb = 1.5 }), false},
		{"badfrac above one", mod(func(c *Config) { c.BadSectorFrac = 2 }), false},
		{"degraded above one", mod(func(c *Config) { c.DegradedProb = 1.1 }), false},
		{"negative retries", mod(func(c *Config) { c.MaxRetries = -1 }), false},
		{"slowdown below one", mod(func(c *Config) { c.DegradedFactor = 0.5 }), false},
		{"window longer than period", mod(func(c *Config) { c.DegradedDurMS = c.DegradedPeriodMS + 1 }), false},
		{"degradation without period", mod(func(c *Config) { c.DegradedPeriodMS = 0 }), false},
		{"retries at the bound", mod(func(c *Config) { c.MaxRetries, c.RetryBackoffMS = 64, 0 }), true},
		{"retries above the bound", mod(func(c *Config) { c.MaxRetries, c.RetryBackoffMS = 65, 0 }), false},
		{"backoff at one day", mod(func(c *Config) { c.MaxRetries, c.RetryBackoffMS = 1, 8.64e7 }), true},
		{"backoff doubling past one day", mod(func(c *Config) { c.MaxRetries = 20 }), false},
		{"backoff doubling to infinity", mod(func(c *Config) { c.MaxRetries, c.RetryBackoffMS = 64, 1e300 }), false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	specs := []string{
		"", "off", "none", "light", "moderate", "heavy",
		"spinup=0.25,retries=2,backoff=100,timeout=5000",
		"badfrac=0.001 remap=7.5",
		"degraded=0.2, period=10000, duration=2000, slowdown=3",
	}
	for _, spec := range specs {
		c, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		formatted := FormatSpec(c)
		c2, err := ParseSpec(formatted)
		if err != nil {
			t.Fatalf("re-parsing %q (from %q): %v", formatted, spec, err)
		}
		if c != c2 {
			t.Fatalf("round trip of %q changed config: %+v vs %+v", spec, c, c2)
		}
	}
}

// FormatSpec's bytes are part of core.Config.Fingerprint, so they key
// the instance cache and every journal cell: a drift would orphan
// existing journals. The literals were recorded from the original
// hand-written renderer.
func TestFormatSpecBytes(t *testing.T) {
	for spec, want := range map[string]string{
		"off":      "off",
		"light":    "spinup=0.02,retries=3,backoff=500,timeout=40000,badfrac=0.0001,remap=4,degraded=0.05,period=30000,duration=5000,slowdown=2",
		"moderate": "spinup=0.1,retries=3,backoff=500,timeout=40000,badfrac=0.001,remap=4,degraded=0.15,period=30000,duration=5000,slowdown=4",
		"heavy":    "spinup=0.3,retries=4,backoff=500,timeout=60000,badfrac=0.005,remap=4,degraded=0.3,period=30000,duration=10000,slowdown=8",
		// All ten keys, out of canonical order, in mixed case, with a
		// comment and both separators.
		"Slowdown=2.5 duration=1500\nperiod=12000 # window grid\n" +
			"degraded=0.125,remap=7.25,BADFRAC=3e-5,timeout=5e3,backoff=125.5,retries=2,spinup=0.25": "spinup=0.25,retries=2,backoff=125.5,timeout=5000,badfrac=3e-05,remap=7.25,degraded=0.125,period=12000,duration=1500,slowdown=2.5",
	} {
		c, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		if got := FormatSpec(c); got != want {
			t.Errorf("FormatSpec(ParseSpec(%q)) = %q, want %q", spec, got, want)
		}
	}
}

// dpmd returns ParseSpec's errors verbatim in 400 bodies, so their
// texts are pinned too.
func TestParseSpecErrors(t *testing.T) {
	const keys = "(have [backoff badfrac degraded duration period remap retries slowdown spinup timeout])"
	for spec, want := range map[string]string{
		"spinup":              `faults: bad spec entry "spinup" (want key=value)`,
		"spinup=banana":       `faults: spinup: strconv.ParseFloat: parsing "banana": invalid syntax`,
		"spinup=nan":          `faults: spinup is not finite`,
		"backoff=+Inf":        `faults: backoff is not finite`,
		"spinup=2":            `faults: spinup probability 2 outside [0,1]`,
		"warp=9":              `faults: unknown spec key "warp" ` + keys,
		"=5":                  `faults: unknown spec key "" ` + keys,
		"warp=banana":         `faults: warp: strconv.ParseFloat: parsing "banana": invalid syntax`,
		"retries=1.5":         `faults: retries: strconv.Atoi: parsing "1.5": invalid syntax`,
		"retries=-1":          `faults: negative retry bound -1`,
		"spinup=2,retries=-1": `faults: spinup probability 2 outside [0,1]`,
		"remap=-1":            `faults: remap is negative`,
		"slowdown=0.1":        `faults: slowdown factor 0.1 below 1`,
		"degraded=0.5 slowdown=2,period=10,duration=20": `faults: window duration 20 exceeds period 10`,
		// The retry cascade is a loop whose backoff doubles per retry.
		"spinup=1,retries=2000,backoff=500": `faults: retry bound 2000 above 64`,
		"spinup=1,retries=10000000":         `faults: retry bound 10000000 above 64`,
		"spinup=1,retries=20,backoff=500":   `faults: backoff 500 doubled over 20 retries totals 5.242875e+08 ms, more than a day`,
		// @file is expanded by the CLIs, not the parser.
		"@/no/such/file-xx": `faults: bad spec entry "@/no/such/file-xx" (want key=value)`,
	} {
		_, err := ParseSpec(spec)
		if err == nil || err.Error() != want {
			t.Errorf("ParseSpec(%q) = %v, want %s", spec, err, want)
		}
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(1, 0, Config{}); err == nil {
		t.Fatal("accepted zero disks")
	}
	if _, err := New(1, -3, Config{}); err == nil {
		t.Fatal("accepted negative disks")
	}
	if _, err := New(1, 4, Config{SpinUpFailProb: math.NaN()}); err == nil {
		t.Fatal("accepted NaN probability")
	}
	p, err := New(1, 4, Config{})
	if err != nil || p.NumDisks() != 4 {
		t.Fatalf("New(1, 4, zero) = %v, %v", p, err)
	}
	if !strings.Contains(p.Fingerprint(), "off") {
		t.Fatalf("zero-config fingerprint %q should render as off", p.Fingerprint())
	}
}
