package serve

import (
	"math"
	"strings"
	"testing"
	"time"
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
