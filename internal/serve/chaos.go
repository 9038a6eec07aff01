package serve

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"sdpm/internal/faults"
)

// Chaos is the service's self-test fault injector: with -chaos armed,
// a deterministic fraction of requests stall inside the handler (to
// exercise deadlines and drain) and a fraction panic (to exercise the
// cell-boundary isolation). Draws come from the same splitmix64
// stream generator as the simulator's fault plans, keyed by the
// request's admission sequence number, so a given seed reproduces the
// exact same stall/panic pattern run after run.
type Chaos struct {
	Seed      int64
	StallProb float64 // probability a request stalls
	StallMS   float64 // stall length in wall milliseconds
	PanicProb float64 // probability a request panics mid-work
}

// Distinct draw streams keep the stall and panic decisions
// independent of each other for the same request index.
const (
	chaosStallStream = 0x7365727665730a01
	chaosPanicStream = 0x7365727665730a02
)

// chaosKeys is the -chaos grammar.
var chaosKeys = []faults.SpecKey[Chaos]{
	{Name: "seed", Field: func(c *Chaos) any { return &c.Seed }},
	{Name: "stall", Field: func(c *Chaos) any { return &c.StallProb }},
	{Name: "stall_ms", Field: func(c *Chaos) any { return &c.StallMS }},
	{Name: "panic", Field: func(c *Chaos) any { return &c.PanicProb }},
}

// maxStallMS is the longest stall a time.Duration holds.
const maxStallMS = float64(math.MaxInt64 / time.Millisecond)

// ParseChaos parses a -chaos spec: "off" or "" disables; otherwise
// key=value pairs in the -faults grammar (see faults.ParseKeys) with
// keys seed (an integer), stall (probability), stall_ms, and panic
// (probability).
func ParseChaos(spec string) (*Chaos, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return nil, nil
	}
	c := &Chaos{Seed: 1, StallMS: 100}
	if err := faults.ParseKeys(spec, chaosKeys, c); err != nil {
		return nil, fmt.Errorf("serve: chaos: %w", err)
	}
	if c.StallProb < 0 || c.StallProb > 1 || c.PanicProb < 0 || c.PanicProb > 1 {
		return nil, fmt.Errorf("serve: chaos probabilities must be in [0,1]")
	}
	if c.StallMS < 0 || c.StallMS > maxStallMS {
		return nil, fmt.Errorf("serve: chaos stall_ms must be in [0,%.0f]", maxStallMS)
	}
	return c, nil
}

// maybeStall sleeps the configured stall when request k draws one,
// returning early (with the context's typed error) if ctx fires
// mid-stall. A nil receiver never stalls.
func (c *Chaos) maybeStall(ctx context.Context, k uint64) *Error {
	if c == nil || c.StallProb <= 0 {
		return nil
	}
	if faults.Uniform(c.Seed, chaosStallStream, k) >= c.StallProb {
		return nil
	}
	t := time.NewTimer(time.Duration(c.StallMS * float64(time.Millisecond)))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctxError(ctx, nil)
	}
}

// shouldPanic reports whether request k draws a synthetic panic.
func (c *Chaos) shouldPanic(k uint64) bool {
	if c == nil || c.PanicProb <= 0 {
		return false
	}
	return faults.Uniform(c.Seed, chaosPanicStream, k) < c.PanicProb
}
