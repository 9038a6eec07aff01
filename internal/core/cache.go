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
// base-trace generation — runs once per (workload, configuration)
// even when many schemes, experiments, or worker goroutines ask for
// it. All methods are safe for concurrent use, and concurrent
// requests for the same key run a single Prepare (the others block on
// it), so a parallel experiment grid never duplicates work.
//
// The memoization key is: the workload name, the identity of the IR
// program (pointer — programs are treated as immutable once built),
// the Config fingerprint (see Config.Fingerprint), and the layout
// overrides rendered in sorted order. Version preparation adds the
// version tag and memoizes the whole ApplyVersion+Prepare pair, which
// is deterministic in its inputs.
type Cache struct {
	// Obs, when non-nil, receives hit/miss/singleflight-wait counts
	// from every lookup and is propagated onto each prepared
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

// entry returns (creating if needed) the entry for a key.
func (c *Cache) entry(key string, prog *ir.Program) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = make(map[string]*cacheEntry)
	}
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{prog: prog}
		c.entries[key] = e
	}
	return e
}

// Len reports the number of memoized preparations.
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
// the work, every later (or concurrent) call returns the shared
// Instance. Callers must not mutate the returned Instance's fields;
// its Run and derived-artifact methods are concurrency-safe.
func (c *Cache) Prepare(name string, p *ir.Program, cfg Config, overrides map[string]layout.Striping) (*Instance, error) {
	key := fmt.Sprintf("p|%s|%p|%s|%s", name, p, cfg.Fingerprint(), overridesKey(overrides))
	e := c.entry(key, p)
	wasDone := e.done.Load()
	ran := false
	e.once.Do(func() {
		ran = true
		e.in, e.err = Prepare(name, p, cfg, overrides)
		if e.in != nil {
			e.in.Obs = c.Obs
			e.in.Events = c.Events
		}
		e.done.Store(true)
	})
	c.countLookup(ran, wasDone)
	return e.in, e.err
}

// countLookup classifies one lookup for the metrics: the caller
// either did the preparation (miss), found it already memoized
// (hit), or blocked on another goroutine's in-flight preparation
// (singleflight wait).
func (c *Cache) countLookup(ran, wasDone bool) {
	if c.Obs == nil {
		return
	}
	switch {
	case ran:
		c.Obs.Add(obs.CacheMisses, 1)
	case wasDone:
		c.Obs.Add(obs.CacheHits, 1)
	default:
		c.Obs.Add(obs.CacheWaits, 1)
	}
}

// PrepareVersion is a memoizing core.PrepareVersion: the code/layout
// transformation and the preparation of its result are both shared.
// The bool reports whether the transformation applied.
func (c *Cache) PrepareVersion(name string, p *ir.Program, v Version, cfg Config) (*Instance, bool, error) {
	key := fmt.Sprintf("v|%s|%p|%s|%s", name, p, v, cfg.Fingerprint())
	e := c.entry(key, p)
	wasDone := e.done.Load()
	ran := false
	e.once.Do(func() {
		ran = true
		defer e.done.Store(true)
		var nestCost []float64
		if v == VTLDL {
			// The layout-aware tiler needs the original program's
			// per-nest request counts; share that preparation too.
			orig, err := c.Prepare(name, p, cfg, nil)
			if err != nil {
				e.err = err
				return
			}
			nestCost = orig.NestRequests()
		}
		tp, overrides, applied, err := ApplyVersion(p, v, cfg, nestCost)
		if err != nil {
			e.err = err
			return
		}
		e.in, e.err = Prepare(name+"/"+string(v), tp, cfg, overrides)
		if e.in != nil {
			e.in.Obs = c.Obs
			e.in.Events = c.Events
		}
		e.applied = applied
	})
	c.countLookup(ran, wasDone)
	return e.in, e.applied, e.err
}
