package core

import (
	"sync"
	"testing"

	"sdpm/internal/obs"
	"sdpm/internal/workloads"
)

func TestCacheCountsHitsAndMisses(t *testing.T) {
	b, err := workloads.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	c.Obs = obs.New()
	cfg := DefaultConfig()
	cfg.Model = b.Model()

	in, err := c.Prepare(b.Name, b.Program, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if in.Obs != c.Obs {
		t.Error("prepared instance not wired to the cache's collector")
	}
	if _, err := c.Prepare(b.Name, b.Program, cfg, nil); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.UnitBytes *= 2
	if _, err := c.Prepare(b.Name, b.Program, cfg2, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.PrepareVersion(b.Name, b.Program, AllVersions()[0], cfg); err != nil {
		t.Fatal(err)
	}

	hits, misses, waits := c.Obs.Value(obs.CacheHits), c.Obs.Value(obs.CacheMisses), c.Obs.Value(obs.CacheWaits)
	if misses != 3 { // two Prepare keys + one PrepareVersion key
		t.Errorf("misses = %d, want 3", misses)
	}
	if hits != 1 {
		t.Errorf("hits = %d, want 1", hits)
	}
	if waits != 0 {
		t.Errorf("waits = %d, want 0 (no concurrency here)", waits)
	}
}

func TestCacheCountsAccountForEveryLookup(t *testing.T) {
	b, err := workloads.ByName("mgrid")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	c.Obs = obs.New()
	cfg := DefaultConfig()
	cfg.Model = b.Model()

	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Prepare(b.Name, b.Program, cfg, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	hits, misses, waits := c.Obs.Value(obs.CacheHits), c.Obs.Value(obs.CacheMisses), c.Obs.Value(obs.CacheWaits)
	if misses != 1 {
		t.Errorf("misses = %d, want 1 (singleflight)", misses)
	}
	if hits+misses+waits != n {
		t.Errorf("hits %d + misses %d + waits %d != %d lookups", hits, misses, waits, n)
	}
}
