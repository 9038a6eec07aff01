package netx

import (
	"strings"
	"testing"
)

// FuzzNetxSpec shakes the spec parser: it must never panic, and every
// accepted spec must round-trip stably through FormatSpec/ParseSpec
// (the same contract FuzzParseSpec enforces for -faults).
func FuzzNetxSpec(f *testing.F) {
	for _, seed := range []string{
		"", "off", "light", "moderate", "heavy",
		"latency=5,jitter=10,rate=2000",
		"reset=0.1,reset_at=1:5:9,reset_after=64",
		"truncate=0.2,truncate_after=10",
		"corrupt=0.3,corrupt_at=0",
		"blackhole=0.05,blackhole_at=3:4",
		"stall=0.5,stall_at=0:2,stall_ms=250,stall_after=128",
		"reset=2", "latency=-1", "x=y", "reset_at=", "reset_at=1:x",
		"# comment\nreset=0.5", "latency=1e308", "stall_ms=NaN",
		"@/etc/hostname",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if len(spec) > 1<<12 {
			return
		}
		c, err := ParseSpec(spec)
		if err != nil {
			return
		}
		// No key starts with '@', so "@path" is never a valid spec: the
		// parser must not read it as a file name.
		if strings.HasPrefix(strings.TrimSpace(spec), "@") {
			t.Fatalf("accepted @-spec %q", spec)
		}
		if verr := c.Validate(); verr != nil {
			t.Fatalf("ParseSpec(%q) accepted an invalid config: %v", spec, verr)
		}
		canon := FormatSpec(c)
		c2, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical spec %q (from %q) failed to re-parse: %v", canon, spec, err)
		}
		if FormatSpec(c2) != canon {
			t.Fatalf("unstable round trip: %q -> %q -> %q", spec, canon, FormatSpec(c2))
		}
	})
}
