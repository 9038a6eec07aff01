// Package obs is the engine's observability layer: a low-overhead
// metrics collector threaded through the simulator (request service
// and wait latency, idle-period lengths, per-disk state and RPM
// residency, power ops, spin-up mispredictions), the instance cache
// (hit/miss/singleflight-wait), and the worker pool (task counts,
// utilization, queue depth), plus two exporters — Prometheus text
// exposition (WritePrometheus) and Chrome trace-event / Perfetto JSON
// (WriteChromeTrace).
//
// Every counter, gauge and histogram is one row of a single table,
// indexed by Metric, that gives its Prometheus name, help text, kind,
// label value and /status key. Storage, Snapshot, WritePrometheus and
// the /status JSON all walk that table, so adding a metric takes one
// Metric constant, one table row and its call site.
//
// A nil *Collector is a valid no-op everywhere: every method guards
// its receiver, so instrumented code paths carry a single branch and
// zero allocations when observability is off. One Collector may be
// shared by any number of concurrent simulations, cache lookups, and
// pool workers: every update is an atomic add (float accumulators use
// a CAS loop), and per-disk storage is preallocated by EnsureDisks.
//
// Simulations do not write the shared collector per event. Each run
// takes a RunMetrics from StartRun, accumulates its latency histograms
// and spin-up mispredictions there with plain adds, hands over each
// disk's account of requests, residency, power ops and faults when it
// ends, and publishes the totals once (see run.go).
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// afloat is an atomically-updatable float64 accumulator.
type afloat struct{ bits atomic.Uint64 }

func (f *afloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *afloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// bucketBoundsMS holds the shared latency/duration bucket upper
// bounds in milliseconds. Service times are single-digit ms, waits
// span zero to multi-second spin-ups, and idle periods reach minutes,
// so the grid covers 0.5 ms through 5 minutes.
var bucketBoundsMS = [16]float64{
	0.5, 1, 2.5, 5, 10, 25, 50, 100,
	250, 500, 1000, 2500, 5000, 15000, 60000, 300000,
}

// bucket returns the index of the bucket v falls in; the last index
// is the +Inf bucket.
func bucket(v float64) int {
	i := 0
	for i < len(bucketBoundsMS) && v > bucketBoundsMS[i] {
		i++
	}
	return i
}

// Histogram is a fixed-bucket histogram of millisecond durations.
// Observations are lock-free and allocation-free.
type Histogram struct {
	counts [len(bucketBoundsMS) + 1]atomic.Int64 // last bucket is +Inf
	sum    afloat
	count  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[bucket(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// DiskState labels per-disk residency time. The states mirror the
// simulator's power states, with spinning time split into idle and
// request service.
type DiskState uint8

// Disk residency states.
const (
	StateService DiskState = iota
	StateIdle
	StateStandby
	StateSpinDown
	StateSpinUp
	StateRPMShift
	numDiskStates
)

// diskStateLabels holds the Prometheus label value of each DiskState.
var diskStateLabels = [numDiskStates]string{"service", "idle", "standby", "spindown", "spinup", "rpmshift"}

// String returns the Prometheus label value of the state.
func (s DiskState) String() string { return diskStateLabels[s] }

// Metric names one series of the collector: a counter or gauge, one
// label value of a labeled counter family, or a histogram. The
// constants follow the /metrics order; table describes each one.
type Metric uint8

// Collector metrics.
const (
	SimRuns Metric = iota
	Requests
	ServiceMS
	WaitMS
	IdleMS

	// Executed power-management operations (matching the trace's call
	// names).
	OpSpinDown
	OpSpinUp
	OpSetRPM

	// Spin-up mispredictions: requests that blocked on a disk that was
	// not ready because of a spin-up. Inflight is the paper's
	// pre-activation failure mode (the spin-up was issued but too
	// late); on-demand means no pre-activation happened at all (the
	// request found the disk in or heading to standby).
	MissOnDemand
	MissInflight

	// Injected-fault events (see internal/faults); all zero unless a
	// fault plan is attached to the simulation.
	FaultSpinUpFail // one failed spin-up attempt
	FaultRetry      // one spin-up retry (backoff taken after a failure)
	FaultTimeout    // a spin-up call abandoned at its timeout cap
	FaultFallback   // a request served on demand because an earlier pre-activation gave up
	FaultRemap      // a request that hit a remapped bad sector
	FaultDegraded   // a request serviced inside a degradation window

	// diskFamilies marks where the per-disk families (EnsureDisks)
	// render; it has no storage of its own.
	diskFamilies

	CacheHits
	CacheMisses
	CacheWaits

	RunnerTasks
	RunnerBusyNS
	RunnerActive
	RunnerQueue
	CellPanics
	CellRetries

	JournalHits
	JournalMisses

	// Serving-layer metrics (see internal/serve).
	ServeAccepted
	ServeShed
	ServeDeadline
	ServeCanceled
	ServeDrains
	ServeJournalErrors
	ServeJournalRecoveries
	ServeInflight
	ServeQueued
	ServeWaitMS
	ServeMS

	numMetrics
)

// kind is a metric's Prometheus type.
type kind uint8

const (
	counter kind = iota
	gauge
	histogram
	perDisk
)

func (k kind) String() string { return [...]string{"counter", "gauge", "histogram"}[k] }

// desc describes one Metric. A row with a name opens a Prometheus
// family; a row with only a label is the next series of the family
// opened above it.
type desc struct {
	name, help string
	kind       kind
	// label is the series' kind="..." label value, empty for an
	// unlabeled family.
	label string
	// key is the family's /status JSON key. A labeled family's value
	// is an object keyed by label, unless key ends in "_": then each
	// series gets its own key+label entry.
	key string
	// div divides the stored integer for /metrics; zero exports it
	// unscaled.
	div float64
}

var table = [numMetrics]desc{
	SimRuns:   {name: "sdpm_sim_runs_total", help: "Simulation runs started.", key: "sim_runs"},
	Requests:  {name: "sdpm_requests_total", help: "Disk requests serviced.", key: "requests"},
	ServiceMS: {name: "sdpm_request_service_ms", help: "Request service time in milliseconds.", kind: histogram, key: "service_ms"},
	WaitMS:    {name: "sdpm_request_wait_ms", help: "Request readiness wait (spin-up or shift completion) in milliseconds.", kind: histogram, key: "wait_ms"},
	IdleMS:    {name: "sdpm_idle_period_ms", help: "Length of the inter-request idle period ending at each request, in milliseconds.", kind: histogram, key: "idle_ms"},

	OpSpinDown: {name: "sdpm_power_ops_total", help: "Executed power-management operations by kind.", label: "spin_down", key: "power_ops"},
	OpSpinUp:   {label: "spin_up"},
	OpSetRPM:   {label: "set_rpm"},

	MissOnDemand: {name: "sdpm_spinup_mispredictions_total", help: "Requests that blocked on a disk spin-up: ondemand = no pre-activation (disk in standby), inflight = pre-activation issued too late.", label: "ondemand", key: "spinup_miss_"},
	MissInflight: {label: "inflight"},

	FaultSpinUpFail: {name: "sdpm_faults_total", help: "Injected fault events by kind: spin-up failures, retries, timeout give-ups, on-demand fallbacks, bad-sector remap hits, degraded-window services.", label: "spinup_fail", key: "faults"},
	FaultRetry:      {label: "spinup_retry"},
	FaultTimeout:    {label: "spinup_timeout"},
	FaultFallback:   {label: "ondemand_fallback"},
	FaultRemap:      {label: "remap_hit"},
	FaultDegraded:   {label: "degraded_service"},

	diskFamilies: {kind: perDisk, key: "disks"},

	CacheHits:   {name: "sdpm_cache_hits_total", help: "Instance-cache hits (preparation already memoized).", key: "cache_hits"},
	CacheMisses: {name: "sdpm_cache_misses_total", help: "Instance-cache misses (preparation executed).", key: "cache_misses"},
	CacheWaits:  {name: "sdpm_cache_singleflight_waits_total", help: "Instance-cache callers that blocked on a concurrent preparation of the same key.", key: "cache_singleflight_waits"},

	RunnerTasks:  {name: "sdpm_runner_tasks_total", help: "Worker-pool cells completed.", key: "runner_tasks"},
	RunnerBusyNS: {name: "sdpm_runner_busy_seconds_total", help: "Cumulative worker busy time in seconds.", key: "runner_busy_ns", div: 1e9},
	RunnerActive: {name: "sdpm_runner_workers_active", help: "Workers currently executing a cell.", kind: gauge, key: "runner_workers_active"},
	RunnerQueue:  {name: "sdpm_runner_queue_depth", help: "Cells claimed by no worker yet.", kind: gauge, key: "runner_queue_depth"},
	CellPanics:   {name: "sdpm_runner_cell_panics_total", help: "Worker-pool cells recovered from a panic (reported as CellError).", key: "cell_panics"},
	CellRetries:  {name: "sdpm_runner_cell_retries_total", help: "Retries of failing worker-pool cells.", key: "cell_retries"},

	JournalHits:   {name: "sdpm_journal_hits_total", help: "Experiment cells served from the result journal on resume.", key: "journal_hits"},
	JournalMisses: {name: "sdpm_journal_misses_total", help: "Experiment cells computed and appended to the result journal.", key: "journal_misses"},

	ServeAccepted:          {name: "sdpm_serve_accepted_total", help: "Requests admitted past the serving layer's admission queue.", key: "serve_accepted"},
	ServeShed:              {name: "sdpm_serve_shed_total", help: "Requests rejected by admission control (queue full or queue-wait budget expired).", key: "serve_shed"},
	ServeDeadline:          {name: "sdpm_serve_deadline_total", help: "Requests whose deadline expired while queued or executing (504).", key: "serve_deadline"},
	ServeCanceled:          {name: "sdpm_serve_canceled_total", help: "Requests abandoned by their client before completion.", key: "serve_canceled"},
	ServeDrains:            {name: "sdpm_serve_drains_total", help: "Drain transitions (readiness flipped to draining).", key: "serve_drains"},
	ServeJournalErrors:     {name: "sdpm_serve_journal_errors_total", help: "Journal append failures seen by the serving layer (each failed retry counts).", key: "serve_journal_errors"},
	ServeJournalRecoveries: {name: "sdpm_serve_journal_recoveries_total", help: "Degraded-mode recoveries: the journal re-probe re-attached durability.", key: "serve_journal_recoveries"},
	ServeInflight:          {name: "sdpm_serve_inflight", help: "Requests currently executing in the serving layer.", kind: gauge, key: "serve_inflight"},
	ServeQueued:            {name: "sdpm_serve_queue_depth", help: "Requests currently waiting in the admission queue.", kind: gauge, key: "serve_queue_depth"},
	ServeWaitMS:            {name: "sdpm_serve_queue_wait_ms", help: "Admission-queue wait of accepted requests in milliseconds.", kind: histogram, key: "serve_queue_wait_ms"},
	ServeMS:                {name: "sdpm_serve_handle_ms", help: "Handler latency of admitted requests in milliseconds.", kind: histogram, key: "serve_handle_ms"},
}

// Label returns the kind="..." label value of a labeled series — for
// the fault kinds also the detail of the matching fault event — or ""
// for an unlabeled one.
func (m Metric) Label() string { return table[m].label }

// numHists is the number of histogram rows in table.
const numHists = 5

// histSlot maps each histogram metric to its index in Collector.hists.
var histSlot = func() (slot [numMetrics]uint8) {
	n := uint8(0)
	for m := range table {
		if table[m].kind == histogram {
			slot[m] = n
			n++
		}
	}
	if n != numHists {
		panic("obs: numHists does not match the histogram rows of table")
	}
	return slot
}()

// diskMetrics holds one disk's accumulators. The RPM residency grid
// is fixed at creation (EnsureDisks) from the disk model's level
// parameters; residency at an RPM outside the grid lands in otherMS.
type diskMetrics struct {
	requests atomic.Int64
	stateMS  [numDiskStates]afloat
	minRPM   int
	rpmStep  int
	rpmMS    []afloat
	otherMS  afloat
}

// levelIndex maps an RPM value onto the residency grid.
func (d *diskMetrics) levelIndex(rpm int) (int, bool) {
	if d.rpmStep <= 0 {
		return 0, false
	}
	off := rpm - d.minRPM
	if off < 0 || off%d.rpmStep != 0 {
		return 0, false
	}
	i := off / d.rpmStep
	if i >= len(d.rpmMS) {
		return 0, false
	}
	return i, true
}

// Collector accumulates engine metrics. Construct with New; a nil
// *Collector is a valid no-op sink.
type Collector struct {
	vals  [numMetrics]atomic.Int64 // counters and gauges, by Metric
	hists [numHists]Histogram      // by histSlot

	mu    sync.Mutex // serializes EnsureDisks growth
	disks atomic.Pointer[[]*diskMetrics]
}

// New returns an empty collector.
func New() *Collector { return &Collector{} }

// Add adds delta to counter or gauge m.
func (c *Collector) Add(m Metric, delta int64) {
	if c == nil {
		return
	}
	c.vals[m].Add(delta)
}

// Observe records one value in histogram m.
func (c *Collector) Observe(m Metric, v float64) {
	if c == nil {
		return
	}
	c.hists[histSlot[m]].Observe(v)
}

// Value returns the current value of counter or gauge m.
func (c *Collector) Value(m Metric) int64 {
	if c == nil {
		return 0
	}
	return c.vals[m].Load()
}

// EnsureDisks guarantees per-disk storage for disks [0, n) with an
// RPM residency grid of numLevels levels starting at minRPM in steps
// of rpmStep. It is idempotent and may be called concurrently; disks
// already present keep their grid. StartRun calls it for each
// simulation run.
func (c *Collector) EnsureDisks(n, minRPM, rpmStep, numLevels int) {
	if c == nil {
		return
	}
	if cur := c.disks.Load(); cur != nil && len(*cur) >= n {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.disks.Load()
	if cur != nil && len(*cur) >= n {
		return
	}
	var ds []*diskMetrics
	if cur != nil {
		ds = append(ds, *cur...)
	}
	for i := len(ds); i < n; i++ {
		if numLevels < 1 {
			numLevels = 1
		}
		ds = append(ds, &diskMetrics{minRPM: minRPM, rpmStep: rpmStep, rpmMS: make([]afloat, numLevels)})
	}
	c.disks.Store(&ds)
}

// NumDisks reports how many disks EnsureDisks has covered.
func (c *Collector) NumDisks() int {
	if c == nil {
		return 0
	}
	ds := c.disks.Load()
	if ds == nil {
		return 0
	}
	return len(*ds)
}
