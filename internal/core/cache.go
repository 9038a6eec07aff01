package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sdpm/internal/ir"
	"sdpm/internal/layout"
	"sdpm/internal/obs"
	"sdpm/internal/obs/events"
)

// Cache memoizes prepared instances so the expensive front half of
// the pipeline — compilation, access-pattern extraction, placement,
// base-trace generation — runs once per preparation key even when
// many schemes, experiments, names or worker goroutines ask for it.
// All methods are safe for concurrent use, and concurrent requests
// for the same key run a single Prepare (the others block on it), so
// a parallel experiment grid never duplicates work.
//
// The memoization key is what preparation reads: the identity of the
// IR program (pointer — programs are treated as immutable once built),
// the Config fields preparation reads (see Config.prepKey), and the
// layout overrides rendered in sorted order. Version preparation adds
// the version tag and memoizes the DeriveVersion step, which is
// deterministic in its inputs, then prepares the transformed program
// through the same memo: a version that leaves the program unchanged
// (VOrig, or a transformation that does not apply) shares the
// original's preparation. Every lookup returns an instance under its
// caller's name and run-only settings, so the cache holds one entry
// per preparation, not per name or fault seed, and needs no eviction.
// Config.Fingerprint, which covers the run-only settings too, keys
// experiment cells, not this memo.
type Cache struct {
	// Obs, when non-nil, receives hit/miss/singleflight-wait counts
	// from every Prepare and PrepareVersion call (a version's
	// preparation of its transformed program is not a call of its
	// own) and is propagated onto each prepared
	// Instance (so simulation runs on cached instances are observed
	// too). Set it before first use.
	Obs *obs.Collector
	// Events, when non-nil, is propagated onto each prepared Instance
	// the same way (decision-provenance events from runs on cached
	// instances land in one shared log). Set it before first use.
	Events *events.Log

	mu      sync.Mutex
	entries map[string]*cacheEntry
}

type cacheEntry struct {
	once sync.Once
	// done flips after once completes; a caller that finds the entry
	// neither done nor runnable blocked on a concurrent preparation
	// (the singleflight-wait case in the metrics).
	done atomic.Bool
	// prog pins the keyed program so its address cannot be reused by
	// the allocator while the entry is alive.
	prog    *ir.Program
	in      *Instance
	applied bool
	err     error
}

// NewCache returns an empty instance cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*cacheEntry)}
}

// Len reports the number of memo entries: one per preparation and
// one per code version looked up.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// overridesKey renders layout overrides canonically (sorted by array).
func overridesKey(overrides map[string]layout.Striping) string {
	if len(overrides) == 0 {
		return ""
	}
	names := make([]string, 0, len(overrides))
	for n := range overrides {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%+v;", n, overrides[n])
	}
	return b.String()
}

// Prepare is a memoizing core.Prepare: the first call for a key does
// the work, every later (or concurrent) call shares it. Callers must
// not mutate the returned Instance's fields; its Run and
// derived-artifact methods are concurrency-safe.
func (c *Cache) Prepare(name string, p *ir.Program, cfg Config, overrides map[string]layout.Striping) (*Instance, error) {
	return c.prepare(name, p, cfg, overrides, true)
}

// prepareQuiet is Prepare for a version's transformed program: the
// lookup does not show in the hit/miss/wait counters.
func (c *Cache) prepareQuiet(name string, p *ir.Program, cfg Config, overrides map[string]layout.Striping) (*Instance, error) {
	return c.prepare(name, p, cfg, overrides, false)
}

// prepare is Prepare; count says whether the lookup shows in the
// hit/miss/wait counters.
func (c *Cache) prepare(name string, p *ir.Program, cfg Config, overrides map[string]layout.Striping, count bool) (*Instance, error) {
	key := fmt.Sprintf("p|%p|%s|%s", p, cfg.prepKey(), overridesKey(overrides))
	in, _, err := c.lookup(key, p, name, cfg, count, func() (*Instance, bool, error) {
		in, err := Prepare(name, p, cfg, overrides)
		if in != nil {
			// Wire the observers before the entry publishes the
			// instance: once other goroutines can copy it, its
			// fields are read-only.
			in.Obs, in.Events = c.Obs, c.Events
		}
		return in, false, err
	})
	return in, err
}

// PrepareVersion is a memoizing core.PrepareVersion: the code/layout
// transformation is shared, and so is the preparation of its result,
// with every other lookup of the same program, configuration and
// overrides. The bool reports whether the transformation applied.
func (c *Cache) PrepareVersion(name string, p *ir.Program, v Version, cfg Config) (*Instance, bool, error) {
	key := fmt.Sprintf("v|%p|%s|%s", p, v, cfg.prepKey())
	return c.lookup(key, p, versionName(name, v), cfg, true, func() (*Instance, bool, error) {
		return prepareVersion(name, p, v, cfg, c.Prepare, c.prepareQuiet)
	})
}

// lookup returns the preparation memoized under key, running prepare
// for it once (concurrent callers block on that one run), under the
// caller's name and cfg's run-only settings; count says whether the
// lookup shows in the hit/miss/wait counters. The key leaves those
// settings out, so cfg is validated first: an invalid one must not
// fail the preparation every later caller shares, nor run unchecked
// on a hit.
func (c *Cache) lookup(key string, p *ir.Program, name string, cfg Config, count bool, prepare func() (*Instance, bool, error)) (*Instance, bool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[string]*cacheEntry)
	}
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{prog: p}
		c.entries[key] = e
	}
	c.mu.Unlock()
	wasDone := e.done.Load()
	ran := false
	e.once.Do(func() {
		ran = true
		e.in, e.applied, e.err = prepare()
		e.done.Store(true)
	})
	// The caller either did the preparation (miss), found it already
	// memoized (hit), or blocked on another goroutine's in-flight
	// preparation (singleflight wait).
	switch {
	case !count:
	case ran:
		c.Obs.Add(obs.CacheMisses, 1)
	case wasDone:
		c.Obs.Add(obs.CacheHits, 1)
	default:
		c.Obs.Add(obs.CacheWaits, 1)
	}
	if e.err != nil {
		return nil, false, e.err
	}
	return e.in.withRun(name, cfg), e.applied, nil
}
