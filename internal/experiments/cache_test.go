package experiments

import (
	"io"
	"testing"

	"sdpm/internal/core"
	"sdpm/internal/workloads"
)

// TestSecondRoundAddsNoCacheEntries: dpmd serves every experiment
// request from a fresh Suite over one shared Cache and one shared set
// of Benchmarks. Experiments take their benchmarks from the suite, so
// repeating every experiment prepares nothing new and pins no memory.
func TestSecondRoundAddsNoCacheEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	cache := core.NewCache()
	benches := workloads.All()
	render := func(id string) {
		s := NewSuite()
		s.Benchmarks = benches
		s.Cache = cache
		if err := Render(s, id, io.Discard, "text"); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	for _, id := range IDs() {
		render(id)
	}
	for _, id := range IDs() {
		before := cache.Len()
		render(id)
		if after := cache.Len(); after != before {
			t.Errorf("%s: a second round grew the shared cache from %d to %d entries", id, before, after)
		}
	}
}
