package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sdpm/internal/cli"
	"sdpm/internal/core"
	"sdpm/internal/experiments"
	"sdpm/internal/fsx"
	"sdpm/internal/journal"
	"sdpm/internal/obs"
	"sdpm/internal/runner"
	"sdpm/internal/workloads"
)

// Config tunes the service. The zero value is usable: Complete fills
// every unset field with the defaults below.
type Config struct {
	// MaxInflight bounds concurrently executing requests
	// (0 = GOMAXPROCS).
	MaxInflight int
	// MaxQueue bounds requests waiting for an execution slot; a full
	// queue sheds new work with 429 (0 = 4x MaxInflight).
	MaxQueue int
	// QueueWait bounds how long an admitted-to-queue request may wait
	// for a slot before it is shed (0 = 1s).
	QueueWait time.Duration
	// DefaultTimeout is the per-request deadline when the client sends
	// no ?timeout (0 = 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the client-requested ?timeout (0 = 2m).
	MaxTimeout time.Duration
	// DrainTimeout bounds graceful drain: in-flight requests get this
	// long to finish after shutdown begins (0 = 15s).
	DrainTimeout time.Duration
	// Workers is each experiment request's simulation parallelism
	// (0 = GOMAXPROCS); results are byte-identical for every value.
	Workers int
	// Retries re-runs a failing or panicking experiment cell, exactly
	// as dpmexp -retries does.
	Retries int
	// JournalPath, when set, records every completed experiment cell
	// to this crash-safe journal, shared across all requests; it is
	// compacted and finalized atomically on drain. The file uses the
	// same cell keys as dpmexp, so a dpmd journal resumes a dpmexp run
	// and vice versa.
	JournalPath string
	// Resume reopens an existing journal instead of truncating it.
	Resume bool
	// FS is the filesystem the journal writes through; nil selects the
	// real OS. Tests inject a seeded fault-injecting filesystem
	// (internal/fsx.Faulty) to exercise degraded mode deterministically.
	FS fsx.FS
	// JournalRetries is how many extra attempts a failed journal append
	// gets (with backoff) before the server degrades to memory-only
	// operation (0 = 2; negative = no retries). A poisoned journal —
	// torn write or failed fsync — skips retries: they cannot help.
	JournalRetries int
	// JournalRetryBackoff is the sleep before the first append retry,
	// doubling per attempt (0 = 10ms).
	JournalRetryBackoff time.Duration
	// JournalReprobe, when positive, arms degraded-mode auto-recovery:
	// while the journal is degraded, a background loop re-probes the
	// journal path at this interval (with a small seeded jitter) and —
	// when the filesystem has healed — re-attaches a fresh journal,
	// flips /readyz back to ok, and counts the recovery. Zero disables
	// auto-recovery (degraded stays until restart, the pre-existing
	// behavior).
	JournalReprobe time.Duration
	// MaxBody caps the request body in bytes; a larger body gets a
	// typed 413 (0 = 1 MiB).
	MaxBody int64
	// Chaos, when non-nil, arms deterministic self-fault injection
	// (handler stalls and synthetic panics) for robustness testing.
	Chaos *Chaos
}

// Complete fills unset fields with defaults.
func (c *Config) Complete() {
	if c.MaxInflight <= 0 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInflight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = time.Second
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	if c.FS == nil {
		c.FS = fsx.OS
	}
	if c.JournalRetries == 0 {
		c.JournalRetries = 2
	} else if c.JournalRetries < 0 {
		c.JournalRetries = 0
	}
	if c.JournalRetryBackoff <= 0 {
		c.JournalRetryBackoff = 10 * time.Millisecond
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20 // a request is a small JSON document; anything bigger is abuse
	}
}

// Server is the simulation service. Create with New; serve its
// Handler; stop with BeginDrain + Drain.
type Server struct {
	cfg Config
	// coll is the server's own collector, served on /metrics. It is
	// the only observer the server attaches to the engine: decision
	// events come from the offline tools' -events-out.
	coll  *obs.Collector
	admit *admitter
	idem  *idemCache
	chaos *Chaos

	// benchmarks is the one workloads.All() slice the server ever
	// uses: the shared instance cache keys on program identity, so
	// every request must see the same *workloads.Benchmark values.
	benchmarks []*workloads.Benchmark
	cache      *core.Cache

	// journalMu guards the journal pointer, which the reprobe loop
	// swaps for a fresh handle on recovery. Read through jrnl(); the
	// pointer is non-nil for the server's whole lifetime iff
	// JournalPath is configured.
	journalMu sync.RWMutex
	journal   *journal.Journal
	// reprobeStop ends the auto-recovery loop; closed by BeginDrain,
	// which then waits on reprobeWG so no journal swap can race
	// Drain's finalize of the handle it read.
	reprobeStop chan struct{}
	reprobeWG   sync.WaitGroup

	// mu orders the drain flag against in-flight registration: a
	// handler holds the read side while it checks draining and joins
	// the WaitGroup, so BeginDrain's write observes either the
	// registered request (and waits for it) or the flag already set
	// (and the request is refused). No request is ever both refused
	// and waited for, or neither.
	mu       sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	// degraded flips (one-way, until restart) when the journal stays
	// unwritable past the retry budget: requests are served from
	// memory and durability-requiring requests get a typed 503. See
	// degraded.go.
	degraded       atomic.Bool
	degradedMu     sync.Mutex
	degradedReason string

	reqSeq  atomic.Uint64 // admission sequence, keys the chaos draws
	started time.Time
}

// New builds the service: one shared instance cache and benchmark set
// for its lifetime, and — when configured — the shared crash-safe
// journal. A held journal lock (another dpmd or dpmexp writing the
// same path) surfaces as the journal's typed *LockError.
func New(cfg Config) (*Server, error) {
	cfg.Complete()
	s := &Server{
		cfg:        cfg,
		coll:       obs.New(),
		idem:       newIdemCache(),
		chaos:      cfg.Chaos,
		benchmarks: workloads.All(),
		cache:      core.NewCache(),
		started:    time.Now(),
	}
	s.admit = newAdmitter(cfg.MaxInflight, cfg.MaxQueue, cfg.QueueWait, s.coll)
	s.cache.Obs = s.coll
	if cfg.JournalPath != "" {
		var (
			j   *journal.Journal
			err error
		)
		if cfg.Resume {
			j, err = journal.OpenFS(cfg.FS, cfg.JournalPath)
		} else {
			j, err = journal.CreateFS(cfg.FS, cfg.JournalPath)
		}
		if err != nil {
			return nil, err
		}
		if records, torn := j.Recovered(); records > 0 || torn > 0 {
			slog.Info("journal recovered", "path", cfg.JournalPath, "records", records, "truncated_bytes", torn)
		}
		s.journal = j
		if cfg.JournalReprobe > 0 {
			s.reprobeStop = make(chan struct{})
			s.reprobeWG.Add(1)
			go s.reprobeLoop()
		}
	}
	return s, nil
}

// jrnl returns the current journal handle (nil when no journal is
// configured). The pointer is re-read on every call because the
// reprobe loop swaps it on recovery.
func (s *Server) jrnl() *journal.Journal {
	s.journalMu.RLock()
	defer s.journalMu.RUnlock()
	return s.journal
}

// swapJournal installs a fresh journal handle and returns the old one.
func (s *Server) swapJournal(j *journal.Journal) *journal.Journal {
	s.journalMu.Lock()
	old := s.journal
	s.journal = j
	s.journalMu.Unlock()
	return old
}

// Handler returns the service's routes mounted next to the standard
// introspection endpoints (/metrics, /status, /debug/pprof/).
func (s *Server) Handler() http.Handler {
	mux := cli.DebugMux(s.coll, s.status)
	mux.HandleFunc("POST /v1/sim", s.handleSim)
	mux.HandleFunc("POST /v1/experiment", s.handleExperiment)
	mux.HandleFunc("GET /v1/experiments", s.handleListExperiments)
	mux.HandleFunc("GET /v1/benchmarks", s.handleListBenchmarks)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		// Degraded is still ready — requests are served correctly from
		// memory — but the body tells the operator durability is gone.
		if deg, _ := s.Degraded(); deg {
			w.Write([]byte("degraded: journal\n"))
			return
		}
		w.Write([]byte("ready\n"))
	})
	return mux
}

// status feeds the /status endpoint's app block: the server state
// the metrics object does not carry. The serve counters and gauges
// are in the metrics object as serve_*.
func (s *Server) status() any {
	st := map[string]any{
		"tool":        "dpmd",
		"uptime_s":    time.Since(s.started).Seconds(),
		"draining":    s.Draining(),
		"cache_len":   s.cache.Len(),
		"chaos_armed": s.chaos != nil,
	}
	if j := s.jrnl(); j != nil {
		st["journal_cells"] = j.Len()
	}
	if deg, reason := s.Degraded(); deg {
		st["degraded"] = "journal"
		st["degraded_reason"] = reason
	}
	return st
}

// Draining reports whether graceful shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// BeginDrain flips the server into draining: /readyz turns 503 and
// every new request is refused with a typed unavailable error.
// In-flight requests keep running; Drain waits for them.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if already {
		return
	}
	if s.reprobeStop != nil {
		// Wait the loop out: a reprobe already past its stop check could
		// otherwise swap in a fresh journal after Drain has read the
		// handle it is about to finalize, leaking the new handle and
		// finalizing a closed one.
		close(s.reprobeStop)
		s.reprobeWG.Wait()
	}
	s.coll.Add(obs.ServeDrains, 1)
	slog.Info("drain started", "drain_timeout", s.cfg.DrainTimeout)
}

// Drain completes graceful shutdown: it waits (bounded by ctx) for
// every in-flight request to finish, then finalizes the shared
// journal — compacted and atomically renamed, so the file on disk is
// complete and deduplicated. A ctx expiry is reported after the
// journal is still safely closed with every fsynced record intact.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var waitErr error
	select {
	case <-done:
	case <-ctx.Done():
		waitErr = fmt.Errorf("serve: drain deadline expired with requests still in flight: %w", ctx.Err())
	}
	if j := s.jrnl(); j != nil {
		deg, _ := s.Degraded()
		switch {
		case waitErr != nil:
			if err := j.Close(); err != nil {
				slog.Warn("journal close failed", "err", err)
			}
		case deg:
			// Degraded: the handle may already be closed (a failed
			// reprobe releases it before reopening) or the filesystem
			// still broken. Finalize is best-effort — the durability
			// loss is already surfaced through degraded mode, so its
			// failure must not turn a clean drain into an error.
			if err := j.Finalize(); err != nil {
				slog.Warn("journal finalize skipped in degraded mode", "err", err)
			}
		default:
			if err := j.Finalize(); err != nil {
				waitErr = fmt.Errorf("serve: journal finalize: %w", err)
			}
		}
	}
	slog.Info("drain finished", "err", waitErr)
	return waitErr
}

// deadlineFor resolves the request's deadline: ?timeout= capped by
// MaxTimeout, DefaultTimeout otherwise.
func (s *Server) deadlineFor(r *http.Request) (time.Duration, *Error) {
	raw := r.URL.Query().Get("timeout")
	if raw == "" {
		return s.cfg.DefaultTimeout, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, validationf("bad timeout %q: %v", raw, err)
	}
	if d <= 0 {
		return 0, validationf("timeout must be positive, got %q", raw)
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// execute runs one request through the full hardened path: drain
// gate, deadline, idempotency, admission, chaos, panic-isolated work,
// and taxonomy-mapped response. work computes the success body; it
// must honor ctx.
func (s *Server) execute(w http.ResponseWriter, r *http.Request, route string, body []byte, work func(ctx context.Context) ([]byte, string, *Error)) {
	start := time.Now()
	// Drain gate + in-flight registration, atomically vs BeginDrain.
	s.mu.RLock()
	if s.draining {
		s.mu.RUnlock()
		writeError(w, &Error{Kind: KindUnavailable, Msg: "service is draining", RetryAfter: s.cfg.DrainTimeout})
		return
	}
	s.inflight.Add(1)
	s.mu.RUnlock()
	defer s.inflight.Done()

	timeout, verr := s.deadlineFor(r)
	if verr != nil {
		writeError(w, verr)
		return
	}
	key := r.Header.Get("Idempotency-Key")
	if len(key) > maxIdemKeyBytes {
		writeError(w, validationf("Idempotency-Key is %d bytes, over the %d-byte limit", len(key), maxIdemKeyBytes))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Idempotency: duplicates of a finished request replay its bytes;
	// duplicates of an in-flight one wait for the leader.
	var entry *idemEntry
	if key != "" {
		fp := fingerprint(route, body)
		e, leader, ierr := s.idem.begin(ctx, key, fp)
		if ierr != nil {
			s.finishObs(ierr, start)
			writeError(w, ierr)
			return
		}
		if !leader {
			w.Header().Set("Idempotency-Replayed", "true")
			writeSuccess(w, e.body, e.contentType)
			s.finishObs(nil, start)
			return
		}
		entry = e
	}

	respBody, contentType, xerr := s.admitAndRun(ctx, work)
	if xerr != nil {
		if entry != nil {
			s.idem.abandon(key, entry)
		}
		s.finishObs(xerr, start)
		writeError(w, xerr)
		return
	}
	if entry != nil {
		s.idem.complete(key, entry, respBody, contentType)
	}
	writeSuccess(w, respBody, contentType)
	s.finishObs(nil, start)
}

// writeSuccess writes a success body with its content type and an
// end-to-end integrity digest: X-Sdpm-Digest commits to the exact
// body bytes, so a client can detect silent corruption on the wire
// (internal/client verifies it and treats a mismatch as retryable).
func writeSuccess(w http.ResponseWriter, body []byte, contentType string) {
	w.Header().Set("Content-Type", contentType)
	sum := sha256.Sum256(body)
	w.Header().Set("X-Sdpm-Digest", "sha256="+hex.EncodeToString(sum[:]))
	w.Write(body)
}

// admitAndRun claims an execution slot and runs work inside a
// one-cell worker pool, so a panic — the work's own or a chaos
// injection — is recovered at the cell boundary and mapped to a typed
// internal error instead of killing the process.
func (s *Server) admitAndRun(ctx context.Context, work func(ctx context.Context) ([]byte, string, *Error)) ([]byte, string, *Error) {
	release, waitMS, aerr := s.admit.acquire(ctx)
	if aerr != nil {
		return nil, "", aerr
	}
	defer release()
	s.coll.Add(obs.ServeAccepted, 1)
	s.coll.Observe(obs.ServeWaitMS, waitMS)
	s.coll.Add(obs.ServeInflight, 1)
	defer s.coll.Add(obs.ServeInflight, -1)

	seq := s.reqSeq.Add(1) - 1
	started := time.Now()
	var (
		respBody    []byte
		contentType string
		werr        *Error
	)
	err := runner.New(1).Observe(s.coll).Run(func() error {
		if serr := s.chaos.maybeStall(ctx, seq); serr != nil {
			werr = serr
			return nil
		}
		if s.chaos.shouldPanic(seq) {
			panic(fmt.Sprintf("chaos: synthetic panic (request %d)", seq))
		}
		respBody, contentType, werr = work(ctx)
		return nil
	})
	if err != nil {
		var ce *runner.CellError
		if errors.As(err, &ce) {
			slog.Error("request panicked; isolated", "panic", ce.Value)
			return nil, "", &Error{Kind: KindInternal, Msg: fmt.Sprintf("request work panicked: %v", ce.Value)}
		}
		return nil, "", &Error{Kind: KindInternal, Msg: err.Error()}
	}
	if werr != nil {
		// Attach partial-progress metadata to deadline failures: how
		// long the work ran and how many cells the shared journal has
		// already made durable (those survive for a resume).
		if werr.Kind == KindDeadline && werr.Meta == nil {
			meta := map[string]any{"elapsed_ms": time.Since(started).Milliseconds()}
			if j := s.jrnl(); j != nil {
				meta["journal_cells"] = j.Len()
			}
			werr.Meta = meta
		}
		return nil, "", werr
	}
	return respBody, contentType, nil
}

// finishObs records the request's terminal counters and latency.
func (s *Server) finishObs(e *Error, start time.Time) {
	if e != nil {
		switch e.Kind {
		case KindDeadline:
			s.coll.Add(obs.ServeDeadline, 1)
		case KindCanceled:
			s.coll.Add(obs.ServeCanceled, 1)
		}
	}
	s.coll.Observe(obs.ServeMS, float64(time.Since(start))/float64(time.Millisecond))
}

// simRequest is the POST /v1/sim body.
type simRequest struct {
	Bench     string `json:"bench"`
	Scheme    string `json:"scheme"`
	Faults    string `json:"faults,omitempty"`
	FaultSeed int64  `json:"fault_seed,omitempty"`
	Audit     bool   `json:"audit,omitempty"`
}

// simResponse is the POST /v1/sim success body.
type simResponse struct {
	Bench    string  `json:"bench"`
	Scheme   string  `json:"scheme"`
	EnergyJ  float64 `json:"energy_j"`
	ExecMS   float64 `json:"exec_ms"`
	WaitMS   float64 `json:"wait_ms"`
	Requests int     `json:"requests"`
	PowerOps int     `json:"power_ops"`
}

// handleSim runs one (benchmark, scheme) simulation under the shared
// instance cache and returns its headline numbers.
func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	body, req, verr := decodeBody[simRequest](w, r, s.cfg.MaxBody)
	if verr != nil {
		writeError(w, verr)
		return
	}
	b, verr := s.benchByName(req.Bench)
	if verr != nil {
		writeError(w, verr)
		return
	}
	scheme, verr := schemeByName(req.Scheme)
	if verr != nil {
		writeError(w, verr)
		return
	}
	cfg := core.DefaultConfig()
	cfg.Model = b.Model()
	cfg.CacheUnits = b.CacheUnits
	cfg.Audit = req.Audit
	if err := cfg.SetFaults(req.Faults, req.FaultSeed); err != nil {
		writeError(w, validationf("%v", err))
		return
	}
	s.execute(w, r, "/v1/sim", body, func(ctx context.Context) ([]byte, string, *Error) {
		if ctx.Err() != nil {
			return nil, "", ctxError(ctx, nil)
		}
		in, err := s.cache.Prepare(b.Name, b.Program, cfg, nil)
		if err != nil {
			return nil, "", &Error{Kind: KindInternal, Msg: err.Error()}
		}
		res, err := in.Run(scheme)
		if err != nil {
			return nil, "", &Error{Kind: KindInternal, Msg: err.Error()}
		}
		out, err := json.Marshal(simResponse{
			Bench:    b.Name,
			Scheme:   string(scheme),
			EnergyJ:  res.EnergyJ,
			ExecMS:   res.ExecMS,
			WaitMS:   res.TotalWaitMS,
			Requests: res.Requests,
			PowerOps: res.PowerOps,
		})
		if err != nil {
			return nil, "", &Error{Kind: KindInternal, Msg: err.Error()}
		}
		return append(out, '\n'), "application/json", nil
	})
}

// expRequest is the POST /v1/experiment body.
type expRequest struct {
	ID        string `json:"id"`
	Format    string `json:"format,omitempty"` // text (default) or csv
	Faults    string `json:"faults,omitempty"`
	FaultSeed int64  `json:"fault_seed,omitempty"`
	Audit     bool   `json:"audit,omitempty"`
	// Durable demands the crash-safety guarantee: every cell of this
	// request is journaled durably before the response is written.
	// While the journal is degraded (unwritable) such requests get a
	// typed 503 instead of a silently non-durable success; without a
	// configured journal they are rejected outright (validation).
	Durable bool `json:"durable,omitempty"`
}

// handleExperiment renders one experiment exactly as dpmexp would —
// same suite, same cell keys, same shared-journal semantics — and
// returns the rendered table verbatim, so the response bytes are
// identical to an offline dpmexp run of the same experiment.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	body, req, verr := decodeBody[expRequest](w, r, s.cfg.MaxBody)
	if verr != nil {
		writeError(w, verr)
		return
	}
	if !slices.Contains(experiments.IDs(), req.ID) {
		writeError(w, validationf("unknown experiment %q (have %v)", req.ID, experiments.IDs()))
		return
	}
	format := req.Format
	if format == "" {
		format = "text"
	}
	if format != "text" && format != "csv" {
		writeError(w, validationf("unknown format %q (text or csv)", format))
		return
	}
	su := experiments.NewSuite()
	su.Cfg.Audit = req.Audit
	if err := su.Cfg.SetFaults(req.Faults, req.FaultSeed); err != nil {
		writeError(w, validationf("%v", err))
		return
	}
	su.FaultSeed = req.FaultSeed
	if req.Durable && s.jrnl() == nil {
		writeError(w, validationf("durable requested but the service has no journal configured (-journal)"))
		return
	}
	s.execute(w, r, "/v1/experiment", body, func(ctx context.Context) ([]byte, string, *Error) {
		if req.Durable {
			if deg, reason := s.Degraded(); deg {
				return nil, "", unavailableDegraded(reason)
			}
		}
		su.Benchmarks = s.benchmarks // pointer-stable: shared cache keys on program identity
		su.Cache = s.cache
		su.Workers = s.cfg.Workers
		su.Retries = s.cfg.Retries
		su.Ctx = ctx
		su.Obs = s.coll
		if s.jrnl() != nil {
			// Always through the degrading wrapper (never the bare
			// journal): appends retry, then degrade, and the request is
			// still served from memory. Assigning only when non-nil
			// keeps su.Journal a true nil interface otherwise.
			su.Journal = &degradingJournal{s: s}
		}
		var buf bytes.Buffer
		if err := experiments.Render(su, req.ID, &buf, format); err != nil {
			if ctx.Err() != nil {
				return nil, "", ctxError(ctx, nil)
			}
			return nil, "", &Error{Kind: KindInternal, Msg: err.Error()}
		}
		// Re-check after the work: if the journal degraded while THIS
		// request ran, some of its cells were served from memory and
		// the durability promise is already broken.
		if req.Durable {
			if deg, reason := s.Degraded(); deg {
				return nil, "", unavailableDegraded(reason)
			}
		}
		ct := "text/plain; charset=utf-8"
		if format == "csv" {
			ct = "text/csv; charset=utf-8"
		}
		return buf.Bytes(), ct, nil
	})
}

// handleListExperiments returns the experiment ids.
func (s *Server) handleListExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, experiments.IDs())
}

// handleListBenchmarks returns the benchmark names.
func (s *Server) handleListBenchmarks(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, workloads.Names())
}

func writeJSON(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		writeError(w, &Error{Kind: KindInternal, Msg: err.Error()})
		return
	}
	writeSuccess(w, append(data, '\n'), "application/json")
}

// decodeBody reads and strictly decodes a JSON request body,
// returning the raw bytes too (the idempotency fingerprint covers
// them). The body is bounded by http.MaxBytesReader — an oversized
// one gets a typed 413 and the transport stops reading the rest.
func decodeBody[T any](w http.ResponseWriter, r *http.Request, max int64) ([]byte, *T, *Error) {
	defer r.Body.Close()
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, max))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, nil, &Error{
				Kind: KindTooLarge,
				Msg:  fmt.Sprintf("request body exceeds the %d-byte limit", mbe.Limit),
				Meta: map[string]any{"max_body_bytes": mbe.Limit},
			}
		}
		return nil, nil, validationf("reading body: %v", err)
	}
	var req T
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, nil, validationf("bad JSON body: %v", err)
	}
	// Demand a clean EOF after the document: a second Decode catches
	// trailing values AND stray tokens (a bare '}') that More() lets
	// through.
	var extra any
	if err := dec.Decode(&extra); err != io.EOF {
		return nil, nil, validationf("trailing data after JSON body")
	}
	return raw, &req, nil
}

// benchByName resolves a benchmark against the server's stable set.
func (s *Server) benchByName(name string) (*workloads.Benchmark, *Error) {
	if name == "" {
		return nil, validationf("bench is required (have %v)", workloads.Names())
	}
	for _, b := range s.benchmarks {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, validationf("unknown benchmark %q (have %v)", name, workloads.Names())
}

// schemeByName resolves a scheme name case-insensitively; empty
// selects Base.
func schemeByName(name string) (core.Scheme, *Error) {
	if name == "" {
		return core.Base, nil
	}
	if sc, ok := core.ParseScheme(name); ok {
		return sc, nil
	}
	return "", validationf("unknown scheme %q (have %v)", name, core.AllSchemes())
}
