package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sdpm/internal/cycles"
	"sdpm/internal/disk"
	"sdpm/internal/ir"
	"sdpm/internal/layout"
	"sdpm/internal/obs"
	"sdpm/internal/obs/events"
	"sdpm/internal/tracegen"
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
//
// A preparation that misses builds its instance from two layers, each
// keyed only on what it reads. The walk (placement and site
// extraction) keys on the program pointer, disk count, stripe unit,
// buffer cache and overrides, so configurations that differ only in
// the disk parameters, cycle model or DisablePreactivation walk
// once. A finished walk whose sites and file table equal an earlier
// walk's adopts the earlier one's, so distinct programs with one site
// stream (TL's tiles leave every benchmark's unchanged) share what is
// derived from it. The derived artifacts (base trace, instrumented
// traces and plans, compiled forms) key on the site stream, disk
// count, disk parameters and cycle model values, and an instrumented
// trace within them on its mode and DisablePreactivation. Len counts
// neither layer.
type Cache struct {
	// Obs, when non-nil, receives hit/miss/singleflight-wait counts
	// from every Prepare and PrepareVersion call (a version's
	// preparation of its transformed program is not a call of its
	// own, and PrepareVersionUnobserved counts nothing) and is
	// propagated onto each prepared
	// Instance (so simulation runs on cached instances are observed
	// too). Set it before first use.
	Obs *obs.Collector
	// Events, when non-nil, is propagated onto each prepared Instance
	// the same way (decision-provenance events from runs on cached
	// instances land in one shared log). Set it before first use.
	Events *events.Log

	mu      sync.Mutex // guards entries, walks and derived
	entries map[string]*cacheEntry
	walks   map[walkKey]*walkEntry
	derived map[derivedKey]*derived

	streamMu sync.Mutex // guards streams
	// streams indexes every walk's site stream by its length and end
	// sites, the candidates a finished walk compares itself with.
	streams map[streamKey][]*siteStream
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

// walkKey is what the walk reads; prog, held by the key, pins the
// program's address.
type walkKey struct {
	prog       *ir.Program
	numDisks   int
	unitBytes  int64
	cacheUnits int
	overrides  string
}

type walkEntry struct {
	once   sync.Once
	stream *siteStream
	err    error
}

// siteStream is a walk's output, shared by every walk that yields
// equal sites and files.
type siteStream struct {
	sites []tracegen.Site
	files []string
}

type streamKey struct {
	n           int
	first, last tracegen.Site
}

// derivedKey is what the derived artifacts read.
type derivedKey struct {
	stream   *siteStream
	numDisks int
	disk     disk.Params
	model    cycles.Model
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
	ov := overridesKey(overrides)
	key := fmt.Sprintf("p|%p|%s|%s", p, cfg.prepKey(), ov)
	in, _, err := c.lookup(key, p, name, cfg, count, func() (*Instance, bool, error) {
		w := c.walk(p, cfg, overrides, ov)
		if w.err != nil {
			return nil, false, w.err
		}
		// Wire the observers before the entry publishes the
		// instance: once other goroutines can copy it, its fields
		// are read-only.
		return &Instance{
			Name: name, Program: p, Sites: w.stream.sites, Files: w.stream.files, Cfg: cfg,
			Obs: c.Obs, Events: c.Events, derived: c.derivedFor(w.stream, cfg),
		}, false, nil
	})
	return in, err
}

// walk returns the memoized walk of p under cfg and the overrides
// (rendered as ov), running it once per walkKey.
func (c *Cache) walk(p *ir.Program, cfg Config, overrides map[string]layout.Striping, ov string) *walkEntry {
	key := walkKey{prog: p, numDisks: cfg.NumDisks, unitBytes: cfg.UnitBytes, cacheUnits: cfg.walkCacheUnits(), overrides: ov}
	c.mu.Lock()
	if c.walks == nil {
		c.walks = make(map[walkKey]*walkEntry)
	}
	w, ok := c.walks[key]
	if !ok {
		w = &walkEntry{}
		c.walks[key] = w
	}
	c.mu.Unlock()
	w.once.Do(func() {
		sites, files, err := walk(p, cfg, overrides)
		if err != nil {
			w.err = err
			return
		}
		w.stream = c.adopt(&siteStream{sites: sites, files: files})
	})
	return w
}

// adopt returns the stream of an earlier walk with the same sites and
// files as s, or s itself, which later walks may then adopt.
func (c *Cache) adopt(s *siteStream) *siteStream {
	key := streamKey{n: len(s.sites)}
	if key.n > 0 {
		key.first, key.last = s.sites[0], s.sites[key.n-1]
	}
	c.streamMu.Lock()
	defer c.streamMu.Unlock()
	for _, e := range c.streams[key] {
		if slices.Equal(e.sites, s.sites) && slices.Equal(e.files, s.files) {
			return e
		}
	}
	if c.streams == nil {
		c.streams = make(map[streamKey][]*siteStream)
	}
	c.streams[key] = append(c.streams[key], s)
	return s
}

// derivedFor returns the derived artifacts of stream s under cfg,
// shared with every instance whose derivedKey equals it.
func (c *Cache) derivedFor(s *siteStream, cfg Config) *derived {
	key := derivedKey{stream: s, numDisks: cfg.NumDisks, disk: cfg.Disk, model: *cfg.model()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.derived == nil {
		c.derived = make(map[derivedKey]*derived)
	}
	d, ok := c.derived[key]
	if !ok {
		d = newDerived()
		c.derived[key] = d
	}
	return d
}

// PrepareVersion is a memoizing core.PrepareVersion: the code/layout
// transformation is shared, and so is the preparation of its result,
// with every other lookup of the same program, configuration and
// overrides. The bool reports whether the transformation applied.
func (c *Cache) PrepareVersion(name string, p *ir.Program, v Version, cfg Config) (*Instance, bool, error) {
	return c.prepareVersion(name, p, v, cfg, true)
}

// PrepareVersionUnobserved is PrepareVersion for a caller whose runs
// must stay unobserved: the call shows in no hit/miss/wait counter,
// and the instance it returns carries no collector or event log. A
// derivation that reads the original (TL+DL) looks it up as
// PrepareVersion does.
func (c *Cache) PrepareVersionUnobserved(name string, p *ir.Program, v Version, cfg Config) (*Instance, bool, error) {
	in, applied, err := c.prepareVersion(name, p, v, cfg, false)
	if err != nil {
		return nil, false, err
	}
	cp := *in
	cp.Obs, cp.Events = nil, nil
	return &cp, applied, nil
}

// prepareVersion is PrepareVersion; count says whether the lookup
// shows in the hit/miss/wait counters.
func (c *Cache) prepareVersion(name string, p *ir.Program, v Version, cfg Config, count bool) (*Instance, bool, error) {
	key := fmt.Sprintf("v|%p|%s|%s", p, v, cfg.prepKey())
	return c.lookup(key, p, versionName(name, v), cfg, count, func() (*Instance, bool, error) {
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
