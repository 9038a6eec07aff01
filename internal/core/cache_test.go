package core

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"sdpm/internal/cycles"
	"sdpm/internal/faults"
	"sdpm/internal/insert"
	"sdpm/internal/obs"
	"sdpm/internal/obs/events"
	"sdpm/internal/sim"
	"sdpm/internal/trace"
	"sdpm/internal/workloads"
)

func TestCachePrepareSharesInstances(t *testing.T) {
	b, err := workloads.ByName("galgel")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	cfg := DefaultConfig()
	cfg.Model = b.Model()

	in1, err := c.Prepare(b.Name, b.Program, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A value-equal but distinct model must still hit.
	cfg2 := cfg
	cfg2.Model = b.Model()
	in2, err := c.Prepare(b.Name, b.Program, cfg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if in1 != in2 {
		t.Error("value-equal configs produced distinct instances")
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}

	// Any simulation-relevant change must miss.
	cfg3 := cfg
	m := b.Model()
	m.BiasPct += 5
	cfg3.Model = m
	in3, err := c.Prepare(b.Name, b.Program, cfg3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if in3 == in1 {
		t.Error("changed bias hit the cache")
	}
	cfg4 := cfg
	cfg4.UnitBytes *= 2
	if in4, err := c.Prepare(b.Name, b.Program, cfg4, nil); err != nil {
		t.Fatal(err)
	} else if in4 == in1 {
		t.Error("changed stripe unit hit the cache")
	}
}

func TestCachePrepareConcurrentSingleflight(t *testing.T) {
	b, err := workloads.ByName("mesa")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	cfg := DefaultConfig()
	cfg.Model = b.Model()

	const n = 16
	got := make([]*Instance, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in, err := c.Prepare(b.Name, b.Program, cfg, nil)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = in
			// Exercise the shared lazy artifacts concurrently too.
			_ = in.BaseTrace()
			if _, err := in.Run(AllSchemes()[i%len(AllSchemes())]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatalf("goroutine %d got a distinct instance", i)
		}
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}
}

func TestCachePrepareVersionMatchesDirect(t *testing.T) {
	for _, name := range []string{"swim", "wupwise"} {
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Model = b.Model()
		c := NewCache()
		for _, v := range AllVersions() {
			cin, capplied, err := c.PrepareVersion(b.Name, b.Program, v, cfg)
			if err != nil {
				t.Fatal(err)
			}
			din, dapplied, err := PrepareVersion(b.Name, b.Program, v, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if capplied != dapplied {
				t.Errorf("%s/%s: applied %v vs %v", name, v, capplied, dapplied)
			}
			cres, err := cin.Run(CMDRPM)
			if err != nil {
				t.Fatal(err)
			}
			dres, err := din.Run(CMDRPM)
			if err != nil {
				t.Fatal(err)
			}
			if cres.EnergyJ != dres.EnergyJ || cres.ExecMS != dres.ExecMS {
				t.Errorf("%s/%s: cached run differs: %g/%g vs %g/%g",
					name, v, cres.EnergyJ, cres.ExecMS, dres.EnergyJ, dres.ExecMS)
			}
			// Second lookup shares.
			cin2, _, err := c.PrepareVersion(b.Name, b.Program, v, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if cin2 != cin {
				t.Errorf("%s/%s: repeat lookup missed", name, v)
			}
		}
	}
}

func TestConfigFingerprintCoversModel(t *testing.T) {
	a := DefaultConfig()
	b := DefaultConfig()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical configs fingerprint differently")
	}
	b.Model = cycles.New(cycles.DefaultClockHz, 7, 3)
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("noise model change not fingerprinted")
	}
	c := DefaultConfig()
	c.Model = cycles.New(cycles.DefaultClockHz, 0, 0)
	if a.Fingerprint() != c.Fingerprint() {
		t.Error("explicit default model fingerprints differently from nil")
	}
	d := DefaultConfig()
	d.DisablePreactivation = true
	if a.Fingerprint() == d.Fingerprint() {
		t.Error("preactivation flag not fingerprinted")
	}
}

// retainedHeap returns the heap still in use after a collection.
func retainedHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCacheBoundedAcrossFaultSeeds: fault seeds are run-only
// settings, so any number of new seeds reuse one preparation. The
// memo stays at one entry, the heap it retains grows by less than one
// preparation, and every run still equals a cold preparation's.
func TestCacheBoundedAcrossFaultSeeds(t *testing.T) {
	b, err := workloads.ByName("mesa")
	if err != nil {
		t.Fatal(err)
	}
	light, _ := faults.Preset("light")
	c := NewCache()
	run := func(seed int64) {
		t.Helper()
		cfg := DefaultConfig()
		cfg.Model = b.Model()
		cfg.Faults, cfg.FaultSeed = light, seed
		in, err := c.Prepare(b.Name, b.Program, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := in.Run(CMDRPM)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Prepare(b.Name, b.Program, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.Run(CMDRPM)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: the shared preparation's run differs from a cold one", seed)
		}
	}

	before := retainedHeap()
	run(1)
	first := retainedHeap()
	if first <= before {
		t.Fatalf("the first preparation retained no heap (%d -> %d bytes)", before, first)
	}
	onePrep := first - before
	const seeds = 12
	for seed := int64(2); seed <= seeds; seed++ {
		run(seed)
	}
	after := retainedHeap()
	if after > first && after-first >= onePrep {
		t.Errorf("%d more fault seeds retained %d bytes, one preparation retains %d", seeds-1, after-first, onePrep)
	}
	// Len also keeps the cache reachable through the measurements.
	if n := c.Len(); n != 1 {
		t.Errorf("%d fault seeds left %d cache entries, want 1", seeds, n)
	}
}

// TestCacheRunOnlyCopiesConcurrent: concurrent lookups under distinct
// fault seeds share one preparation, their instances build and read
// its traces at once, and every run equals a cold preparation's.
func TestCacheRunOnlyCopiesConcurrent(t *testing.T) {
	b, err := workloads.ByName("galgel")
	if err != nil {
		t.Fatal(err)
	}
	light, _ := faults.Preset("light")
	config := func(i int) Config {
		cfg := DefaultConfig()
		cfg.Model = b.Model()
		cfg.Faults, cfg.FaultSeed = light, int64(i)
		return cfg
	}
	schemes := AllSchemes()
	c := NewCache()
	const n = 16
	got := make([]*sim.Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in, err := c.Prepare(b.Name, b.Program, config(i), nil)
			if err != nil {
				t.Error(err)
				return
			}
			if got[i], err = in.Run(schemes[i%len(schemes)]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if c.Len() != 1 {
		t.Errorf("%d fault seeds left %d cache entries, want 1", n, c.Len())
	}
	for i := 0; i < n; i++ {
		cold, err := Prepare(b.Name, b.Program, config(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.Run(schemes[i%len(schemes)])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("seed %d, %s: the shared preparation's run differs from a cold one", i, schemes[i%len(schemes)])
		}
	}
}

// TestCacheAuditFollowsRequest: Audit is a run-only setting, so a
// lookup returns an instance that runs audited exactly when its
// caller asked, in either order of the two lookups.
func TestCacheAuditFollowsRequest(t *testing.T) {
	b, err := workloads.ByName("galgel")
	if err != nil {
		t.Fatal(err)
	}
	for _, first := range []bool{false, true} {
		c := NewCache()
		for _, audit := range []bool{first, !first} {
			cfg := DefaultConfig()
			cfg.Model = b.Model()
			cfg.Audit = audit
			in, err := c.Prepare(b.Name, b.Program, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := in.Run(DRPM); err != nil {
				t.Fatal(err)
			}
			_, sc, err := in.simConfig(DRPM)
			if err != nil {
				t.Fatal(err)
			}
			if audited := sc.Audit; audited != audit {
				t.Errorf("lookup with audit=%t after audit=%t ran audited=%t", audit, first, audited)
			}
		}
		if c.Len() != 1 {
			t.Errorf("audit on and off left %d cache entries, want 1", c.Len())
		}
	}
}

// TestCacheSharesUnchangedVersions: Prepare and PrepareVersion for
// every version of swim and wupwise, called concurrently on one cache
// with a collector and an event log. VOrig, every version that
// leaves the program unchanged and TL, whose tiles leave the site
// stream unchanged, share the original's sites and compiled forms;
// every trace an instance hands out carries the
// instance's own name; every run equals an uncached preparation's;
// and each public call counts once.
func TestCacheSharesUnchangedVersions(t *testing.T) {
	c := NewCache()
	c.Obs, c.Events = obs.New(), events.NewLog(0)
	schemes := []Scheme{Base, CMDRPM}
	type call struct {
		b       *workloads.Benchmark
		v       Version // "" for a Prepare of the original
		in      *Instance
		applied bool
		res     []*sim.Result
	}
	var calls []*call
	for _, name := range []string{"swim", "wupwise"} {
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		// The versions start first, so VOrig's lookup tends to
		// prepare the original under its own name while Prepare
		// calls copy the instance.
		for rep := 0; rep < 2; rep++ {
			for _, v := range ExtendedVersions() {
				calls = append(calls, &call{b: b, v: v})
			}
			calls = append(calls, &call{b: b})
		}
	}
	config := func(b *workloads.Benchmark) Config {
		cfg := DefaultConfig()
		cfg.Model = b.Model()
		return cfg
	}
	var wg sync.WaitGroup
	for _, cl := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if cl.v == "" {
				cl.in, err = c.Prepare(cl.b.Name, cl.b.Program, config(cl.b), nil)
			} else {
				cl.in, cl.applied, err = c.PrepareVersion(cl.b.Name, cl.b.Program, cl.v, config(cl.b))
			}
			if err != nil {
				t.Error(err)
				return
			}
			for _, s := range schemes {
				res, err := cl.in.Run(s)
				if err != nil {
					t.Error(err)
					return
				}
				cl.res = append(cl.res, res)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// TL+DL's derivation also looks the original up, once per
	// benchmark.
	public := int64(len(calls) + 2)
	hits, misses, waits := c.Obs.Value(obs.CacheHits), c.Obs.Value(obs.CacheMisses), c.Obs.Value(obs.CacheWaits)
	if hits+misses+waits != public {
		t.Errorf("hits %d + misses %d + waits %d != %d public calls", hits, misses, waits, public)
	}

	orig := make(map[string]*Instance)
	for _, cl := range calls {
		if cl.v == "" {
			orig[cl.b.Name] = cl.in
		}
	}
	checked := make(map[string]bool)
	for _, cl := range calls {
		name := cl.b.Name
		if cl.v != "" {
			name = versionName(name, cl.v)
		}
		in, o := cl.in, orig[cl.b.Name]
		if in.Name != name {
			t.Errorf("%s: instance named %q", name, in.Name)
		}
		if tr := in.BaseTrace(); tr.Program != name {
			t.Errorf("%s: base trace names %q", name, tr.Program)
		}
		for _, mode := range []insert.Mode{insert.ModeTPM, insert.ModeDRPM} {
			tr, _, err := in.Instrumented(mode)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Program != name {
				t.Errorf("%s: %v trace names %q", name, mode, tr.Program)
			}
		}
		// TL builds a new program with the original's site stream,
		// which it shares by content.
		shared := cl.v == "" || cl.v == VOrig || cl.v == VTL || !cl.applied
		if got := &in.Sites[0] == &o.Sites[0]; got != shared {
			t.Errorf("%s: shares the original's sites: %t, want %t", name, got, shared)
		}
		for _, s := range AllSchemes() {
			tr, err := in.Trace(s)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Program != name {
				t.Errorf("%s: %s trace names %q", name, s, tr.Program)
			}
			otr, err := o.Trace(s)
			if err != nil {
				t.Fatal(err)
			}
			if shared && in.Compiled(tr) != o.Compiled(otr) {
				t.Errorf("%s: %s compiled form not the original's", name, s)
			}
		}

		if checked[name] {
			continue
		}
		checked[name] = true
		var cold *Instance
		var err error
		applied := cl.applied
		if cl.v == "" {
			cold, err = Prepare(cl.b.Name, cl.b.Program, config(cl.b), nil)
		} else {
			cold, applied, err = PrepareVersion(cl.b.Name, cl.b.Program, cl.v, config(cl.b))
		}
		if err != nil {
			t.Fatal(err)
		}
		if applied != cl.applied {
			t.Errorf("%s: applied %t, uncached %t", name, cl.applied, applied)
		}
		for i, s := range schemes {
			want, err := cold.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cl.res[i], want) {
				t.Errorf("%s, %s: the cached run differs from an uncached one", name, s)
			}
		}
	}
}

// TestCacheSharesWalks: through one cache, each benchmark's default
// configuration, DisablePreactivation, two other cycle biases and TL
// share one walk's sites. The default and DisablePreactivation share
// the base trace's events and its compiled form but not the CMDRPM
// trace, the bias variants share no base trace, TL shares every trace
// of the default, every run equals an uncached preparation's, and Len
// counts only the preparations and version lookups.
func TestCacheSharesWalks(t *testing.T) {
	type variant struct {
		name string
		cfg  func(b *workloads.Benchmark) Config
		tl   bool // prepare the TL version instead of the program
	}
	def := func(b *workloads.Benchmark) Config {
		cfg := DefaultConfig()
		cfg.Model = b.Model()
		return cfg
	}
	bias := func(pct float64) func(b *workloads.Benchmark) Config {
		return func(b *workloads.Benchmark) Config {
			cfg := def(b)
			cfg.Model.BiasPct = pct
			return cfg
		}
	}
	variants := []variant{
		{name: "default", cfg: def},
		{name: "nopre", cfg: func(b *workloads.Benchmark) Config {
			cfg := def(b)
			cfg.DisablePreactivation = true
			return cfg
		}},
		{name: "bias10", cfg: bias(10)},
		{name: "bias30", cfg: bias(30)},
		{name: "TL", cfg: def, tl: true},
	}
	const dflt, nopre, bias10, bias30, tl = 0, 1, 2, 3, 4
	schemes := []Scheme{Base, CMTPM, CMDRPM}
	events := func(tr *trace.Trace) *trace.Event { return &tr.Events[0] }
	c := NewCache()
	benches := workloads.All()
	for _, b := range benches {
		ins := make([]*Instance, len(variants))
		for i, v := range variants {
			name := b.Name + "/" + v.name
			var in, cold *Instance
			var err error
			if v.tl {
				var applied, coldApplied bool
				in, applied, err = c.PrepareVersion(b.Name, b.Program, VTL, v.cfg(b))
				if err == nil && !applied {
					t.Fatalf("%s: TL did not apply", name)
				}
				if err == nil {
					cold, coldApplied, err = PrepareVersion(b.Name, b.Program, VTL, v.cfg(b))
				}
				if err == nil && coldApplied != applied {
					t.Errorf("%s: applied %t, uncached %t", name, applied, coldApplied)
				}
			} else {
				in, err = c.Prepare(b.Name, b.Program, v.cfg(b), nil)
				if err == nil {
					cold, err = Prepare(b.Name, b.Program, v.cfg(b), nil)
				}
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, s := range schemes {
				got, err := in.Run(s)
				if err != nil {
					t.Fatalf("%s, %s: %v", name, s, err)
				}
				want, err := cold.Run(s)
				if err != nil {
					t.Fatalf("%s, %s: %v", name, s, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s, %s: the cached run differs from an uncached one", name, s)
				}
			}
			ins[i] = in
		}

		traceOf := func(i int, s Scheme) *trace.Trace {
			tr, err := ins[i].Trace(s)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
		for i, v := range variants {
			if &ins[i].Sites[0] != &ins[dflt].Sites[0] {
				t.Errorf("%s/%s: does not share the default's sites", b.Name, v.name)
			}
		}
		for _, i := range []int{nopre, tl} {
			base, dbase := traceOf(i, Base), traceOf(dflt, Base)
			if events(base) != events(dbase) || ins[i].Compiled(base) != ins[dflt].Compiled(dbase) {
				t.Errorf("%s/%s: does not share the default's base trace and its compiled form", b.Name, variants[i].name)
			}
		}
		if events(traceOf(nopre, CMDRPM)) == events(traceOf(dflt, CMDRPM)) {
			t.Errorf("%s/nopre: shares the default's CMDRPM trace", b.Name)
		}
		for _, s := range schemes {
			if events(traceOf(tl, s)) != events(traceOf(dflt, s)) {
				t.Errorf("%s/TL: does not share the default's %s trace", b.Name, s)
			}
		}
		for _, i := range []int{bias10, bias30} {
			for _, j := range []int{dflt, bias10} {
				if i != j && events(traceOf(i, Base)) == events(traceOf(j, Base)) {
					t.Errorf("%s/%s: shares the base trace of %s", b.Name, variants[i].name, variants[j].name)
				}
			}
		}
	}
	// Per benchmark: four preparations of the program, and TL's
	// version lookup and the preparation of its program.
	if got, want := c.Len(), 6*len(benches); got != want {
		t.Errorf("the cache holds %d entries, want %d", got, want)
	}
}
