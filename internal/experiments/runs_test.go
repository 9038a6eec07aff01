package experiments

import (
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sdpm/internal/core"
	"sdpm/internal/obs"
	"sdpm/internal/sim"
	"sdpm/internal/trace"
)

// A memoized run is the run itself: for every benchmark and scheme,
// under the run-only settings the memo keys on, the result a suite
// simulates and the copy it hands a second instance under another
// name equal a fresh preparation's run under that name.
func TestRunMemoMatchesFreshRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every benchmark under every scheme four times")
	}
	variants := []struct {
		name string
		set  func(*core.Config) error
	}{
		{"default", func(*core.Config) error { return nil }},
		{"light faults", func(c *core.Config) error { return c.SetFaults("light", 7) }},
		{"distance seek", func(c *core.Config) error { c.DistanceAwareSeek = true; return nil }},
		{"audit", func(c *core.Config) error { c.Audit = true; return nil }},
	}
	s := NewSuite()
	schemes := core.AllSchemes()
	for _, v := range variants {
		for _, b := range s.Benchmarks {
			cfg := s.configFor(b)
			if err := v.set(&cfg); err != nil {
				t.Fatal(err)
			}
			in, err := s.prepare(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The original version shares in's preparation under
			// another name.
			orig, _, err := s.memo().PrepareVersion(b.Name, b.Program, core.VOrig, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := core.Prepare(b.Name, b.Program, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, sc := range schemes {
				want, err := fresh.Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				sims := s.runs.sims
				got, err := s.simulate(in, sc)
				if err != nil {
					t.Fatal(err)
				}
				again, err := s.simulate(orig, sc)
				if err != nil {
					t.Fatal(err)
				}
				if n := s.runs.sims - sims; n != 1 {
					t.Fatalf("%s/%s/%s: two lookups simulated %d runs, want 1", v.name, b.Name, sc, n)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s/%s: the memoized run differs from a fresh one", v.name, b.Name, sc)
				}
				want.Program = orig.Name
				if !reflect.DeepEqual(again, want) {
					t.Errorf("%s/%s/%s: the shared run under %q differs from a fresh one", v.name, b.Name, sc, orig.Name)
				}
			}
		}
	}
	if want := len(variants) * len(s.Benchmarks) * len(schemes); s.runs.sims != want || s.runs.lookups != 2*want {
		t.Fatalf("%d lookups simulated %d runs, want %d and %d", s.runs.lookups, s.runs.sims, 2*want, want)
	}
}

// An unobserved one-worker sweep asks the memo for 392 closed-loop
// runs and simulates 154 of them; the per-experiment counts pin which
// experiments repeat which runs.
func TestRunMemoCountsOneWorkerSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	want := map[string][2]int{ // id: lookups, simulations
		"table2": {6, 6}, "fig3": {42, 36}, "fig4": {42, 0},
		"fig5": {20, 16}, "fig6": {20, 0}, "fig7": {20, 16}, "fig8": {20, 0},
		"fig13": {66, 22}, "ext-interchange": {24, 3},
		"ablation-preactivation": {18, 6}, "ablation-noise": {8, 8},
		"ablation-cache": {8, 4}, "ablation-clustering": {12, 4},
		"ablation-openloop": {8, 0}, "ablation-seek": {10, 5},
		"breakdown": {12, 0}, "faults-energy": {28, 28}, "faults-time": {28, 0},
	}
	s := NewSuite()
	s.Workers = 1
	s.FaultSeed = 1
	for _, id := range IDs() {
		lookups, sims := s.runs.lookups, s.runs.sims
		if err := Render(s, id, io.Discard, "text"); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := [2]int{s.runs.lookups - lookups, s.runs.sims - sims}; got != want[id] {
			t.Errorf("%s: %d lookups and %d simulations, want %d and %d", id, got[0], got[1], want[id][0], want[id][1])
		}
	}
	if s.runs.lookups != 392 || s.runs.sims != 154 {
		t.Fatalf("the sweep made %d lookups and %d simulations, want 392 and 154", s.runs.lookups, s.runs.sims)
	}
}

// A suite with a collector, as dpmexp -metrics-out and
// Options.Metrics attach one, simulates every observed run: the
// Prometheus dump counts the 406 runs of a one-worker sweep (the 392
// closed-loop runs less AblationClustering's 8 unobserved LF+DL runs,
// plus Table 3's and the noise ablation's 10 misprediction base runs
// and the open-loop ablation's 12 replays), and the memo shares none.
func TestObservedSuiteSimulatesEveryRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	s := NewSuite()
	s.Workers = 1
	s.FaultSeed = 1
	s.Obs = obs.New()
	for _, id := range IDs() {
		if err := Render(s, id, io.Discard, "text"); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	var prom strings.Builder
	if err := obs.WritePrometheus(&prom, s.Obs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "\nsdpm_sim_runs_total 406\n") {
		t.Errorf("the metrics do not report sdpm_sim_runs_total 406 (the collector counted %d)", s.Obs.Value(obs.SimRuns))
	}
	if s.runs.sims != s.runs.lookups {
		t.Errorf("the memo shared %d of its %d runs with an observed suite", s.runs.lookups-s.runs.sims, s.runs.lookups)
	}
}

// memoKey returns a key of its own for the memo's unit tests.
func memoKey() runKey {
	return runKey{first: new(trace.Event), n: 1, scheme: core.Base}
}

// A run that errors or panics leaves no entry: the next lookup of its
// key simulates afresh, as a retried cell must, rather than share a
// result that was never produced.
func TestRunMemoFailedRunLeavesNoEntry(t *testing.T) {
	var m runMemo
	key := memoKey()
	want := &sim.Result{EnergyJ: 1}
	succeed := func() (*sim.Result, error) { return want, nil }

	boom := errors.New("boom")
	if _, _, err := m.do(key, func() (*sim.Result, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if len(m.runs) != 0 {
		t.Fatalf("a failed run left %d entries", len(m.runs))
	}
	if res, shared, err := m.do(key, succeed); res != want || shared || err != nil {
		t.Fatalf("after a failed run: %v, shared %t, %v", res, shared, err)
	}

	key = memoKey()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the run's panic did not reach its caller")
			}
		}()
		m.do(key, func() (*sim.Result, error) { panic("boom") })
	}()
	if _, ok := m.runs[key]; ok {
		t.Fatal("a panicking run left an entry")
	}
	if res, shared, err := m.do(key, succeed); res != want || shared || err != nil {
		t.Fatalf("after a panicking run: %v, shared %t, %v", res, shared, err)
	}
	if m.lookups != 4 || m.sims != 4 {
		t.Fatalf("%d lookups and %d simulations, want 4 and 4", m.lookups, m.sims)
	}
}

// A caller that waited on a run that panicked simulates the run
// itself instead of returning the nil result the panic left.
func TestRunMemoWaiterRetriesAfterPanic(t *testing.T) {
	var m runMemo
	key := memoKey()
	started, release := make(chan struct{}), make(chan struct{})
	go func() {
		defer func() { recover() }()
		m.do(key, func() (*sim.Result, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	want := &sim.Result{EnergyJ: 1}
	done := make(chan *sim.Result)
	go func() {
		res, _, _ := m.do(key, func() (*sim.Result, error) { return want, nil })
		done <- res
	}()
	waitForLookups(&m, 2)
	close(release)
	if res := <-done; res != want {
		t.Fatalf("the waiter got %v, want its own run's result", res)
	}
	if m.sims != 2 {
		t.Fatalf("%d simulations, want 2", m.sims)
	}
}

// Concurrent lookups of one key simulate once and share its result.
func TestRunMemoConcurrentLookupsSimulateOnce(t *testing.T) {
	const callers = 8
	var m runMemo
	key := memoKey()
	want := &sim.Result{EnergyJ: 1}
	release := make(chan struct{})
	var (
		mu   sync.Mutex
		runs int
		wg   sync.WaitGroup
	)
	results := make([]*sim.Result, callers)
	shared := make([]bool, callers)
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], shared[i], _ = m.do(key, func() (*sim.Result, error) {
				mu.Lock()
				runs++
				mu.Unlock()
				<-release
				return want, nil
			})
		}()
	}
	// Every caller has looked the key up before the one run ends.
	waitForLookups(&m, callers)
	close(release)
	wg.Wait()
	if runs != 1 || m.sims != 1 {
		t.Fatalf("%d callers ran %d simulations (%d counted), want 1", callers, runs, m.sims)
	}
	leaders := 0
	for i, res := range results {
		if res != want {
			t.Fatalf("caller %d got %v, want the one run's result", i, res)
		}
		if !shared[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d callers report their own run, want 1", leaders)
	}
}

// waitForLookups yields until the memo has counted n lookups.
func waitForLookups(m *runMemo, n int) {
	for {
		m.mu.Lock()
		got := m.lookups
		m.mu.Unlock()
		if got >= n {
			return
		}
		runtime.Gosched()
	}
}
