package faults

import (
	"strings"
	"testing"
)

// FuzzParseSpec checks the spec parser never panics and that every
// accepted spec round-trips through its canonical rendering: parsing
// FormatSpec's output must reproduce the exact configuration.
func FuzzParseSpec(f *testing.F) {
	f.Add("")
	f.Add("off")
	f.Add("light")
	f.Add("heavy")
	f.Add("spinup=0.1,retries=3,backoff=500,timeout=40000")
	f.Add("badfrac=1e-4 remap=4")
	f.Add("degraded=0.05, period=30000, duration=5000, slowdown=2")
	f.Add("spinup=1 retries=0")
	f.Add("# comment\nspinup=0.5\n")
	f.Add("spinup=nan")
	f.Add("slowdown=0.5")
	f.Add("warp=9")
	f.Add("@/etc/hostname")
	f.Fuzz(func(t *testing.T, spec string) {
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
			t.Fatalf("accepted spec %q fails validation: %v", spec, verr)
		}
		canonical := FormatSpec(c)
		c2, err := ParseSpec(canonical)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canonical, spec, err)
		}
		if c != c2 {
			t.Fatalf("round trip changed config: %q -> %+v, %q -> %+v", spec, c, canonical, c2)
		}
	})
}
