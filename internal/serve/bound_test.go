package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"testing"

	"sdpm/internal/core"
	"sdpm/internal/experiments"
	"sdpm/internal/workloads"
)

// cacheLen reads the shared instance cache's size from /status.
func cacheLen(t *testing.T, s *Server) int {
	t.Helper()
	w := do(s, "GET", "/status", "", nil)
	var st struct {
		App struct {
			CacheLen *int `json:"cache_len"`
		} `json:"app"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || st.App.CacheLen == nil {
		t.Fatalf("/status carries no cache_len (%v): %s", err, w.Body.String())
	}
	return *st.App.CacheLen
}

// TestCacheBoundedAcrossFaultSeeds: fault specs and seeds are run-only
// settings, so once each benchmark has been prepared, no number of
// new seeds on /v1/sim or /v1/experiment grows the shared cache. Every
// served result still equals an in-process run of the same request.
func TestCacheBoundedAcrossFaultSeeds(t *testing.T) {
	s := newTestServer(t, nil)
	benches := []string{"swim", "mesa", "galgel"}
	sim := func(bench, spec string, seed int64) {
		t.Helper()
		body := fmt.Sprintf(`{"bench":%q,"scheme":"CMDRPM","faults":%q,"fault_seed":%d}`, bench, spec, seed)
		w := do(s, "POST", "/v1/sim", body, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", body, w.Code, w.Body.String())
		}
		var got simResponse
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		b, err := workloads.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Model = b.Model()
		cfg.CacheUnits = b.CacheUnits
		if err := cfg.SetFaults(spec, seed); err != nil {
			t.Fatal(err)
		}
		in, err := core.Prepare(b.Name, b.Program, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := in.Run(core.CMDRPM)
		if err != nil {
			t.Fatal(err)
		}
		want := simResponse{
			Bench: b.Name, Scheme: string(core.CMDRPM),
			EnergyJ: res.EnergyJ, ExecMS: res.ExecMS, WaitMS: res.TotalWaitMS,
			Requests: res.Requests, PowerOps: res.PowerOps,
		}
		if got != want {
			t.Errorf("%s: served %+v, in-process %+v", body, got, want)
		}
	}
	for _, b := range benches {
		sim(b, "", 0)
	}
	n := cacheLen(t, s)
	for _, spec := range []string{"light", "off"} {
		for seed := int64(1); seed <= 30; seed++ {
			sim(benches[seed%int64(len(benches))], spec, seed)
		}
		if got := cacheLen(t, s); got != n {
			t.Errorf("30 %q seeds grew the cache from %d to %d entries", spec, n, got)
		}
	}

	experiment := func(seed int64) {
		t.Helper()
		body := fmt.Sprintf(`{"id":"table2","faults":"light","fault_seed":%d}`, seed)
		w := do(s, "POST", "/v1/experiment", body, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", body, w.Code, w.Body.String())
		}
		su := experiments.NewSuite()
		if err := su.Cfg.SetFaults("light", seed); err != nil {
			t.Fatal(err)
		}
		su.FaultSeed = seed
		var offline bytes.Buffer
		if err := experiments.Render(su, "table2", &offline, "text"); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Body.Bytes(), offline.Bytes()) {
			t.Errorf("%s: served table differs from the in-process render:\n%s\nvs\n%s", body, w.Body.String(), offline.String())
		}
	}
	experiment(1)
	n = cacheLen(t, s)
	for seed := int64(2); seed <= 4; seed++ {
		experiment(seed)
	}
	if got := cacheLen(t, s); got != n {
		t.Errorf("3 table2 seeds grew the cache from %d to %d entries", n, got)
	}
}

// retainedHeap returns the heap still in use after a collection.
func retainedHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestNewRetainsLittleHeap: a fresh server's caches start empty and
// it attaches no event ring, so New retains less than 2 MB of heap.
func TestNewRetainsLittleHeap(t *testing.T) {
	before := retainedHeap()
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	after := retainedHeap()
	runtime.KeepAlive(s)
	if after > before && after-before >= 2<<20 {
		t.Errorf("serve.New retained %.2f MB of heap, want under 2 MB", float64(after-before)/(1<<20))
	}
}
