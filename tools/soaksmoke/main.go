// Command soaksmoke is the end-to-end network-fault soak gate for the
// resilience stack (the make soak-smoke target): it boots the real
// dpmd daemon, interposes the deterministic fault-injecting proxy
// (internal/netx) between a resilient client (internal/client) and
// the daemon, and proves four properties over real TCP:
//
//  1. Integrity under chaos: hundreds of requests ride through seeded
//     resets, corruptions, and truncations; every experiment response
//     is byte-identical to an offline render, and retries after
//     ambiguous failures are idempotent replays, not duplicated work
//     (the finalized journal holds no duplicate cells). Hundreds of
//     distinct fault seeds leave dpmd's instance cache at one
//     preparation per benchmark.
//  2. Determinism: the same (proxy seed, client seed, request
//     sequence) yields byte-identical client metrics snapshots and
//     proxy fault counters, run after run.
//  3. Breaker choreography: a scripted reset schedule opens, probes,
//     and closes the circuit breaker at exactly the predicted call
//     indices.
//  4. Hedging: a blackholed primary connection is rescued by a hedged
//     attempt without the request failing.
//
// Any deviation exits non-zero with a description.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sdpm/internal/client"
	"sdpm/internal/experiments"
	"sdpm/internal/netx"
	"sdpm/internal/workloads"
	"sdpm/tools/internal/smoke"
)

func main() {
	bin := flag.String("bin", "", "path to the dpmd binary under test")
	requests := flag.Int("requests", 200, "simulation requests in each chaos soak phase")
	seed := flag.Int64("seed", 42, "seed for the proxy fault schedule and the client jitter streams")
	flag.Parse()
	if *bin == "" {
		fmt.Fprintln(os.Stderr, "soaksmoke: -bin is required")
		os.Exit(2)
	}
	if err := run(*bin, *requests, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "soaksmoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("soaksmoke: PASS")
}

func run(bin string, requests int, seed int64) error {
	dir, err := os.MkdirTemp("", "soaksmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	jpath := filepath.Join(dir, "soak.journal")

	d, err := smoke.Start(bin,
		"-addr", "127.0.0.1:0",
		"-journal", jpath,
		"-drain-timeout", "10s",
	)
	if err != nil {
		return err
	}
	defer d.Kill()

	// The offline truth: the bytes every proxied experiment response
	// must match exactly, rendered in-process with a fresh suite.
	var offline bytes.Buffer
	if err := experiments.Render(experiments.NewSuite(), "table2", &offline, "text"); err != nil {
		return fmt.Errorf("offline render: %v", err)
	}

	if err := chaosSoak(d.Addr, seed, requests, offline.Bytes()); err != nil {
		return fmt.Errorf("chaos soak: %v", err)
	}
	// Fault seeds are run-only settings: the soak's distinct seeds must
	// leave one prepared instance per benchmark in dpmd's cache.
	status, err := smoke.Get(d.URL() + "/status")
	if err != nil {
		return err
	}
	if want := fmt.Sprintf(`"cache_len": %d,`, len(workloads.Names())); !strings.Contains(status, want) {
		return fmt.Errorf("%d fault seeds left other than one instance-cache entry per benchmark (/status lacks %s)", requests, want)
	}
	fmt.Printf("soaksmoke: %d fault seeds left one instance-cache entry per benchmark\n", requests)
	if err := determinism(d.Addr, seed); err != nil {
		return fmt.Errorf("determinism: %v", err)
	}
	if err := breakerChoreography(d.Addr); err != nil {
		return fmt.Errorf("breaker choreography: %v", err)
	}
	if err := hedging(d.Addr); err != nil {
		return fmt.Errorf("hedging: %v", err)
	}

	// The daemon itself never saw a persistence fault: the journal
	// error counter, read directly (no proxy), must be zero.
	metrics, err := smoke.Get(d.URL() + "/metrics")
	if err != nil {
		return err
	}
	if !strings.Contains(metrics, "sdpm_serve_journal_errors_total 0") {
		return fmt.Errorf("daemon reports journal errors after a disk-fault-free soak")
	}

	// Graceful drain, then the no-duplicate-computation proof: every
	// journal line valid, every cell unique.
	if err := d.Drain(); err != nil {
		return err
	}
	cells, err := smoke.ValidateJournal(jpath)
	if err != nil {
		return err
	}
	fmt.Printf("soaksmoke: journal finalized with %d unique cells, no duplicates\n", cells)
	return nil
}

// newChaosClient builds the client used against a fault proxy. The
// breaker is disabled here so the soak and determinism phases measure
// the retry path alone; breakerChoreography exercises the breaker
// with a scripted schedule.
func newChaosClient(proxyAddr string, seed int64) *client.Client {
	return client.New(client.Config{
		BaseURL:        "http://" + proxyAddr,
		Seed:           seed,
		MaxRetries:     6,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     10 * time.Millisecond,
		AttemptTimeout: 60 * time.Second,
		Breaker:        client.BreakerConfig{FailureThreshold: -1},
	})
}

// chaosSoak drives the request volume through probabilistic resets,
// corruptions, and truncations, then as much again with a new fault
// seed per request over every benchmark. Every request must succeed,
// every experiment body must match the offline render, and the
// retries the faults force must show up as idempotent replays.
func chaosSoak(upstream string, seed int64, requests int, offline []byte) error {
	cfg := netx.Config{ResetProb: 0.06, CorruptProb: 0.05, TruncateProb: 0.04}
	p, err := netx.New(upstream, seed, cfg)
	if err != nil {
		return err
	}
	addr, err := p.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer p.Close()

	c := newChaosClient(addr.String(), seed)
	ctx := context.Background()
	benches := []string{"swim", "applu", "mgrid", "galgel"}
	schemes := []string{"TPM", "DRPM", "CMDRPM"}
	for i := 0; i < requests; i++ {
		req := client.SimRequest{Bench: benches[i%len(benches)], Scheme: schemes[i%len(schemes)]}
		if _, err := c.Sim(ctx, req, 0); err != nil {
			return fmt.Errorf("sim %d (%s/%s): %v", i, req.Bench, req.Scheme, err)
		}
	}
	for i := 0; i < 10; i++ {
		res, err := c.Experiment(ctx, client.ExperimentRequest{ID: "table2"}, time.Minute)
		if err != nil {
			return fmt.Errorf("experiment %d: %v", i, err)
		}
		if !bytes.Equal(res.Body, offline) {
			return fmt.Errorf("experiment %d response differs from the offline render (%d vs %d bytes)", i, len(res.Body), len(offline))
		}
	}
	names := workloads.Names()
	for i := 0; i < requests; i++ {
		req := client.SimRequest{Bench: names[i%len(names)], Scheme: "CMDRPM", Faults: "light", FaultSeed: int64(i + 1)}
		if _, err := c.Sim(ctx, req, 0); err != nil {
			return fmt.Errorf("sim %d (%s, fault seed %d): %v", i, req.Bench, req.FaultSeed, err)
		}
	}

	snap := c.Metrics()
	pc := p.Counters()
	fmt.Printf("soaksmoke: chaos soak %d requests, %d attempts, %d retries, %d replays; proxy %s\n",
		snap.Requests, snap.Attempts, snap.Retries, snap.Replays, pc)
	if snap.Failed != 0 {
		return fmt.Errorf("%d requests failed despite retries", snap.Failed)
	}
	if pc.Resets+pc.Corrupts+pc.Truncates == 0 {
		return fmt.Errorf("the proxy injected no faults; the soak proved nothing")
	}
	if snap.Retries == 0 {
		return fmt.Errorf("faults were injected but the client never retried")
	}
	if snap.Replays == 0 {
		return fmt.Errorf("retries after mid-response resets produced no idempotent replays — the server recomputed instead")
	}
	if cfg.CorruptProb > 0 && snap.DigestMismatches == 0 && pc.Corrupts > 0 {
		return fmt.Errorf("corrupted responses slipped past the digest check")
	}
	return nil
}

// determinism runs the same GET sequence through two fresh, equally
// seeded proxy+client stacks and demands byte-identical metrics.
// GETs carry no idempotency key, so the daemon's replay cache cannot
// couple the two passes.
func determinism(upstream string, seed int64) error {
	pass := func() (string, string, error) {
		p, err := netx.New(upstream, seed+1, netx.Config{ResetProb: 0.08, CorruptProb: 0.08, TruncateProb: 0.06})
		if err != nil {
			return "", "", err
		}
		addr, err := p.Start("127.0.0.1:0")
		if err != nil {
			return "", "", err
		}
		defer p.Close()
		c := newChaosClient(addr.String(), seed+1)
		ctx := context.Background()
		for i := 0; i < 60; i++ {
			var err error
			switch i % 3 {
			case 0:
				_, err = c.ListExperiments(ctx)
			case 1:
				_, err = c.ListBenchmarks(ctx)
			default:
				err = c.Health(ctx)
			}
			if err != nil {
				return "", "", fmt.Errorf("request %d: %v", i, err)
			}
		}
		return c.Metrics().String(), p.Counters().String(), nil
	}
	m1, c1, err := pass()
	if err != nil {
		return fmt.Errorf("pass 1: %v", err)
	}
	m2, c2, err := pass()
	if err != nil {
		return fmt.Errorf("pass 2: %v", err)
	}
	if m1 != m2 {
		return fmt.Errorf("client metrics diverged between identical passes:\n--- pass 1\n%s--- pass 2\n%s", m1, m2)
	}
	if c1 != c2 {
		return fmt.Errorf("proxy counters diverged between identical passes: %q vs %q", c1, c2)
	}
	if strings.Contains(c1, "resets=0") && strings.Contains(c1, "corrupts=0") && strings.Contains(c1, "truncates=0") {
		return fmt.Errorf("determinism passes saw no faults (proxy %s)", c1)
	}
	fmt.Printf("soaksmoke: determinism holds over 2x60 requests (proxy %s)\n", c1)
	return nil
}

// breakerChoreography scripts resets on connections 2, 3, and 4 and
// asserts the breaker walks its state machine at exactly the
// predicted decision indices (the same schedule internal/client's
// acceptance test pins down).
func breakerChoreography(upstream string) error {
	p, err := netx.New(upstream, 1, netx.Config{ResetAt: []int{2, 3, 4}})
	if err != nil {
		return err
	}
	addr, err := p.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer p.Close()

	c := client.New(client.Config{
		BaseURL:        "http://" + addr.String(),
		Seed:           7,
		MaxRetries:     -1, // one attempt per request: request == connection
		AttemptTimeout: 10 * time.Second,
		Breaker:        client.BreakerConfig{FailureThreshold: 3, ProbeAfter: 2},
	})
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		_ = c.Health(ctx) // scripted failures are the point
	}
	snap := c.Metrics()
	const wantTransitions = "open@10;half-open@12;closed@13"
	if got := strings.Join(snap.BreakerTransitions, ";"); got != wantTransitions {
		return fmt.Errorf("breaker transitions = %q, want %q", got, wantTransitions)
	}
	if snap.BreakerOpens != 1 || snap.BreakerHalfOpens != 1 || snap.BreakerCloses != 1 {
		return fmt.Errorf("breaker cycle counts = %d/%d/%d, want 1/1/1",
			snap.BreakerOpens, snap.BreakerHalfOpens, snap.BreakerCloses)
	}
	if snap.BreakerFastFails != 1 || snap.Succeeded != 4 || snap.Failed != 4 {
		return fmt.Errorf("breaker outcome = %d fast-fails, %d ok, %d failed; want 1/4/4",
			snap.BreakerFastFails, snap.Succeeded, snap.Failed)
	}
	fmt.Printf("soaksmoke: breaker walked %s exactly as scripted\n", wantTransitions)
	return nil
}

// hedging blackholes the primary connection and requires the hedged
// attempt to win without the request failing.
func hedging(upstream string) error {
	p, err := netx.New(upstream, 1, netx.Config{BlackholeAt: []int{0}})
	if err != nil {
		return err
	}
	addr, err := p.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer p.Close()

	c := client.New(client.Config{
		BaseURL:        "http://" + addr.String(),
		Seed:           3,
		MaxRetries:     -1,
		HedgeDelay:     50 * time.Millisecond,
		AttemptTimeout: 10 * time.Second,
	})
	if err := c.Health(context.Background()); err != nil {
		return fmt.Errorf("hedged request failed: %v", err)
	}
	snap := c.Metrics()
	if snap.Hedges != 1 || snap.HedgesWon != 1 {
		return fmt.Errorf("hedges = %d launched / %d won, want 1/1", snap.Hedges, snap.HedgesWon)
	}
	fmt.Println("soaksmoke: hedge rescued a blackholed primary connection")
	return nil
}
