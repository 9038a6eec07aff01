# Convenience targets for the sdpm reproduction.

GO ?= go

.PHONY: all check build test test-short vet race fuzz-smoke crash-smoke bench bench-check bench-json bench-diff bench-diff-rev experiments golden golden-drift events-drift examples cover cover-all serve-smoke soak-smoke govulncheck clean

all: check

# check is the full gate: build, vet, tests, and the race detector
# over the concurrent packages (worker pool, instance memo,
# simulator).
check: build vet test race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

# race runs the race detector where concurrency lives: the worker
# pool (including cancellation), the memoizing instance cache, the
# site walk's buffer free list shared by concurrent preparations, the
# experiment grid (an original and its code versions prepared
# concurrently through one cache, and concurrent lookups of the
# suite's run memo), the simulator, the fault-injection
# plan shared across workers, the journal appended to by concurrent
# experiment cells, the observability layer (collector snapshots and
# the event ring, both written by concurrent simulation runs), the
# fault-injecting filesystem (one op counter shared by concurrent
# handles) and its atomic writer (concurrent writers to one
# destination), and the serving layer (admission control, idempotency
# cache, and drain racing a burst of concurrent requests), plus the
# network-fault tier (the chaos proxy's connection pumps and the
# resilient client's hedged attempts).
race:
	$(GO) test -race ./internal/runner ./internal/core ./internal/tracegen ./internal/experiments ./internal/sim ./internal/faults ./internal/fsx ./internal/cli ./internal/journal ./internal/obs ./internal/obs/events ./internal/serve ./internal/netx ./internal/client

# fuzz-smoke gives each fuzz target a short budget — enough to shake
# out parser and numeric regressions on every CI run without turning
# the pipeline into a fuzzing campaign. Go allows one -fuzz pattern
# per invocation, hence one line per target.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/dsl
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/faults
	$(GO) test -run='^$$' -fuzz=FuzzBreakEven -fuzztime=$(FUZZTIME) ./internal/disk
	$(GO) test -run='^$$' -fuzz=FuzzBestRPM -fuzztime=$(FUZZTIME) ./internal/disk
	$(GO) test -run='^$$' -fuzz=FuzzWalkMatchesBruteForce -fuzztime=$(FUZZTIME) ./internal/access
	$(GO) test -run='^$$' -fuzz=FuzzJournalDecode -fuzztime=$(FUZZTIME) ./internal/journal
	$(GO) test -run='^$$' -fuzz=FuzzRecoverTail -fuzztime=$(FUZZTIME) ./internal/journal
	$(GO) test -run='^$$' -fuzz=FuzzEventDecode -fuzztime=$(FUZZTIME) ./internal/obs/events
	$(GO) test -run='^$$' -fuzz=FuzzParseChaos -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzServeRequest -fuzztime=$(FUZZTIME) ./internal/serve

# crash-smoke runs the crash-consistency suite: the fsx fault model
# itself, the crash explorer over every power-loss point of a journal
# kill-and-resume run and of an atomic file replace, and the serving
# layer's degraded-mode acceptance tests (journal faults must not fail
# requests). See docs/robustness.md "Crash consistency".
crash-smoke:
	$(GO) test -run 'TestCrash|TestFaulty|TestExplore|TestAppend|TestDegraded|TestDurable' -count=1 ./internal/fsx ./internal/journal ./internal/serve

# bench records the root experiment benchmarks (including the
# Sequential/Parallel suite pair) and the simulator hot-path
# allocation benchmarks into results/bench_baseline.txt for
# regression comparison (see docs/performance.md).
bench:
	mkdir -p results
	$(GO) test -bench=. -benchmem . ./internal/sim | tee results/bench_baseline.txt

# bench-check vets and tests the bench/ module (bench/run.sh's
# harness). It imports core, insert, trace, sim, obs, events,
# experiments and serve, but it is a Go module of its own, so the root
# `go build ./...` never compiles it and a refactor of those packages
# could break bench/run.sh unnoticed.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-diff re-runs the simulator hot-path benchmarks and compares
# them against the committed baseline with tools/benchdiff, failing on
# a >25% ns/op regression — the CI bench-smoke gate. BENCH_SMOKE
# selects the guarded hot paths: three unobserved ones and the DRPM
# hot path with a collector and event log attached; BENCH_TOLERANCE
# loosens the threshold for noisy machines.
BENCH_SMOKE ?= SimHotPath$$|SimHotPathDRPM$$|OpenLoopHotPath$$|SimHotPathObserved$$
BENCH_TOLERANCE ?= 25
bench-diff:
	$(GO) test -run='^$$' -bench='$(BENCH_SMOKE)' -benchmem ./internal/sim | \
		$(GO) run ./tools/benchdiff -tolerance $(BENCH_TOLERANCE) -bench '$(BENCH_SMOKE)' results/bench_baseline.txt -

# bench-diff-rev is bench-diff on one host: it builds the benchmark
# binaries of REV (in a temporary git worktree) and of the working
# tree, runs 10 alternating pairs and compares the medians at
# BENCH_TOLERANCE, so the host's speed cancels out (see
# tools/bench-diff-rev.sh). BENCH_REV selects the compiler front half,
# the experiments it dominates, the whole sweep bench's `sweep`
# workload measures, unobserved and with a collector attached (the
# two sides of the suite's run memo), the 42 scheme runs of a cached
# dpmd round and the BENCH_SMOKE hot paths.
#
#	make bench-diff-rev REV=HEAD~1
BENCH_REV ?= Figure3$$|Figure13$$|SweepAll$$|SweepAllObserved$$|TraceGeneration$$|CompilerInstrumentation$$|Prepare$$|Instrument$$|RunAllSchemes$$|$(BENCH_SMOKE)
bench-diff-rev:
	@test -n "$(REV)" || { echo "usage: make bench-diff-rev REV=<commit>" >&2; exit 2; }
	GO=$(GO) tools/bench-diff-rev.sh '$(REV)' '$(BENCH_REV)' $(BENCH_TOLERANCE)

# bench-json records the same benchmarks as machine-readable JSON
# (results/BENCH_sim.json) for dashboards and regression tooling; see
# tools/benchjson.
bench-json:
	mkdir -p results
	$(GO) test -bench=. -benchmem -run='^$$' . ./internal/sim | $(GO) run ./tools/benchjson > results/BENCH_sim.json

experiments:
	$(GO) run ./cmd/dpmexp -run all

# golden regenerates the checked-in experiment output, with the
# conservation audit verifying every simulation along the way.
# golden-drift fails if the regenerated output differs from the
# committed file — the CI guard against silent behavior changes.
golden:
	mkdir -p results
	$(GO) run ./cmd/dpmexp -run all -audit > results/experiments.txt

golden-drift: golden
	git diff --exit-code results/experiments.txt

# events-drift regenerates the whole decision-provenance event log of
# a one-worker sweep (2,228,977 events, about 618 MB, written to a
# temporary directory so no log line can mix in) and fails unless its
# sha256 equals results/events_all.sha256. The tables only show each
# run's result; the log also pins which runs are observed and in what
# order, the contract a change to the instance memo is most likely to
# break.
events-drift:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/dpmexp" ./cmd/dpmexp && \
	"$$dir/dpmexp" -run all -workers 1 -events-cap 3000000 -events-out "$$dir/events.jsonl" > /dev/null && \
	got=$$(sha256sum < "$$dir/events.jsonl" | cut -d' ' -f1) && want=$$(cat results/events_all.sha256) && \
	if [ "$$got" != "$$want" ]; then echo "events-drift: the event log hashes to $$got, results/events_all.sha256 holds $$want" >&2; exit 1; fi && \
	echo "events-drift: sha256 $$got matches results/events_all.sha256"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/figure2
	$(GO) run ./examples/stencil
	$(GO) run ./examples/customdsl
	$(GO) run ./examples/sweep

# cover writes a coverage profile for the observability layer and
# enforces a floor on its aggregate statement coverage — the event
# log and exporters are pure data plumbing, so near-total coverage is
# cheap and regressions there mean untested rendering paths.
OBS_COVER_MIN ?= 85
cover:
	mkdir -p results
	$(GO) test -coverprofile=results/cover_obs.out ./internal/obs/...
	@$(GO) tool cover -func=results/cover_obs.out | tail -1
	@total=$$($(GO) tool cover -func=results/cover_obs.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}'); \
	awk -v t="$$total" -v min="$(OBS_COVER_MIN)" 'BEGIN { if (t+0 < min+0) { printf "coverage %.1f%% below the %s%% floor for internal/obs/...\n", t, min; exit 1 } }'

# cover-all is the informal whole-repo view (no threshold).
cover-all:
	$(GO) test -cover ./...

# serve-smoke is the end-to-end gate for the dpmd daemon: boot the
# real binary with chaos stalls armed, drive a deadline-exceeding
# request and an overload burst over HTTP, SIGTERM it, and assert a
# clean exit 0 with a finalized journal (see tools/servesmoke).
serve-smoke:
	mkdir -p results
	$(GO) build -o results/dpmd ./cmd/dpmd
	$(GO) run ./tools/servesmoke -bin results/dpmd

# soak-smoke is the network-fault soak gate: boot the real dpmd, put
# the seeded chaos proxy (internal/netx) between it and the resilient
# client (internal/client), and prove integrity, determinism, breaker
# choreography, and hedging end to end (see tools/soaksmoke).
soak-smoke:
	mkdir -p results
	$(GO) build -o results/dpmd ./cmd/dpmd
	$(GO) run ./tools/soaksmoke -bin results/dpmd

# govulncheck scans the module against the Go vulnerability database.
# The scanner is not vendored; the target uses an installed binary
# when present and degrades to a skip (not a failure) when offline —
# CI installs it explicitly.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it via golang.org/x/vuln)"; \
	fi

clean:
	$(GO) clean ./...
