// Command dpmctl is the resilient command-line client for dpmd,
// built on internal/client: every call gets capped exponential
// backoff with seeded jitter, Retry-After honoring, deterministic
// idempotency keys (retries after ambiguous network failures replay
// instead of recomputing), end-to-end response digest verification,
// a deterministic circuit breaker, and optional request hedging.
//
// Usage:
//
//	dpmctl -addr http://127.0.0.1:8080 sim swim CMDRPM
//	dpmctl experiment fig3                  # table bytes, verbatim
//	dpmctl -format csv -durable experiment table2
//	dpmctl experiments                      # one id per line
//	dpmctl benchmarks
//	dpmctl status                           # /status JSON snapshot
//	dpmctl health
//
// Resilience knobs:
//
//	-seed N             backoff-jitter and idempotency-key seed; fixed
//	                    seed + fixed fault schedule = identical runs
//	-retries N          extra attempts per call (-1 = none, 0 = 4)
//	-base-backoff D     first retry's jittered sleep cap (doubles)
//	-max-backoff D      backoff growth cap
//	-attempt-timeout D  budget for one network attempt
//	-hedge D            race a second identical attempt (same
//	                    idempotency key) if the first is slower
//	-breaker-failures N consecutive failures that open the breaker
//	                    (-1 disables it)
//	-no-digest          skip X-Sdpm-Digest response verification
//	-metrics            print the client metrics snapshot to stderr
//	                    after the call (retries, breaker transitions,
//	                    hedges, replays — the soak-comparable format)
//
// Exit status follows the benchdiff contract: 0 on success, 1 when
// the request failed (exhausted retries, breaker open, server error),
// 2 on usage errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sdpm/internal/cli"
	"sdpm/internal/client"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags and executes one subcommand, returning the process
// exit code: 0 success, 1 request failure, 2 usage error. Separated
// from main so the contract is table-testable.
func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("dpmctl", flag.ContinueOnError)
	fs.SetOutput(errw)
	addr := fs.String("addr", "http://127.0.0.1:8080", "dpmd base URL")
	seed := fs.Int64("seed", 1, "seed for backoff jitter and idempotency keys")
	retries := fs.Int("retries", 0, "extra attempts per call beyond the first (0 = 4, -1 = none)")
	baseBackoff := fs.Duration("base-backoff", 0, "cap of the first retry's jittered sleep; doubles per retry (0 = 50ms)")
	maxBackoff := fs.Duration("max-backoff", 0, "cap on backoff growth (0 = 2s)")
	attemptTimeout := fs.Duration("attempt-timeout", 0, "budget for one network attempt (0 = 30s)")
	hedge := fs.Duration("hedge", 0, "launch a second identical attempt if the first exceeds this delay (0 = off)")
	brkFailures := fs.Int("breaker-failures", 0, "consecutive failures that open the circuit breaker (0 = 5, -1 = disabled)")
	brkProbe := fs.Int("breaker-probe-after", 0, "rejected calls the open breaker absorbs before probing (0 = 8)")
	noDigest := fs.Bool("no-digest", false, "skip verification of the server's X-Sdpm-Digest response header")
	metrics := fs.Bool("metrics", false, "print the client metrics snapshot to stderr after the call")
	serverTimeout := fs.Duration("server-timeout", 0, "server-side ?timeout= deadline (0 = the server's default)")
	callTimeout := fs.Duration("call-timeout", 5*time.Minute, "overall budget for the whole call including retries")
	format := fs.String("format", "", "experiment output format: text or csv (experiment only)")
	faultsSpec := fs.String("faults", "", "disk fault-injection spec forwarded to the server (sim/experiment)")
	faultSeed := fs.Int64("fault-seed", 0, "seed for the forwarded -faults schedule")
	audit := fs.Bool("audit", false, "enable invariant auditing on the server-side run")
	durable := fs.Bool("durable", false, "require the result journaled durably; degraded servers answer 503 (experiment only)")
	verbose, quiet := cli.LogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2 // flag package already printed the usage message
	}
	cli.SetupLogging("dpmctl", *verbose, *quiet)

	if fs.NArg() == 0 {
		fmt.Fprintln(errw, "dpmctl: missing command (sim, experiment, experiments, benchmarks, status, health)")
		fs.Usage()
		return 2
	}

	c := client.New(client.Config{
		BaseURL:            *addr,
		Seed:               *seed,
		MaxRetries:         *retries,
		BaseBackoff:        *baseBackoff,
		MaxBackoff:         *maxBackoff,
		AttemptTimeout:     *attemptTimeout,
		HedgeDelay:         *hedge,
		DisableDigestCheck: *noDigest,
		Breaker: client.BreakerConfig{
			FailureThreshold: *brkFailures,
			ProbeAfter:       *brkProbe,
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), *callTimeout)
	defer cancel()

	err := dispatch(ctx, c, fs, out, commandOpts{
		serverTimeout: *serverTimeout,
		format:        *format,
		faults:        *faultsSpec,
		faultSeed:     *faultSeed,
		audit:         *audit,
		durable:       *durable,
	})
	if *metrics {
		fmt.Fprint(errw, c.Metrics().String())
	}
	switch {
	case err == nil:
		return 0
	case isUsage(err):
		fmt.Fprintf(errw, "dpmctl: %v\n", err)
		fs.Usage()
		return 2
	default:
		fmt.Fprintf(errw, "dpmctl: %v\n", err)
		return 1
	}
}

type commandOpts struct {
	serverTimeout time.Duration
	format        string
	faults        string
	faultSeed     int64
	audit         bool
	durable       bool
}

// usageError marks failures of the command line itself, not the call.
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }
func usagef(format string, a ...any) error {
	return &usageError{msg: fmt.Sprintf(format, a...)}
}
func isUsage(err error) bool {
	var ue *usageError
	return errors.As(err, &ue)
}

// dispatch executes one subcommand against the client.
func dispatch(ctx context.Context, c *client.Client, fs *flag.FlagSet, out io.Writer, opts commandOpts) error {
	cmd, rest := fs.Arg(0), fs.Args()[1:]
	switch cmd {
	case "sim":
		if len(rest) < 1 || len(rest) > 2 {
			return usagef("sim wants BENCH [SCHEME], got %v", rest)
		}
		req := client.SimRequest{Bench: rest[0], Faults: opts.faults, FaultSeed: opts.faultSeed, Audit: opts.audit}
		if len(rest) == 2 {
			req.Scheme = rest[1]
		}
		res, err := c.Sim(ctx, req, opts.serverTimeout)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "bench=%s scheme=%s energy_j=%.6f exec_ms=%.3f wait_ms=%.3f requests=%d power_ops=%d\n",
			res.Bench, res.Scheme, res.EnergyJ, res.ExecMS, res.WaitMS, res.Requests, res.PowerOps)
		return nil
	case "experiment":
		if len(rest) != 1 {
			return usagef("experiment wants exactly one ID, got %v", rest)
		}
		res, err := c.Experiment(ctx, client.ExperimentRequest{
			ID: rest[0], Format: opts.format,
			Faults: opts.faults, FaultSeed: opts.faultSeed,
			Audit: opts.audit, Durable: opts.durable,
		}, opts.serverTimeout)
		if err != nil {
			return err
		}
		// Verbatim: these bytes are identical to an offline dpmexp render.
		_, werr := out.Write(res.Body)
		return werr
	case "experiments", "benchmarks":
		if len(rest) != 0 {
			return usagef("%s takes no arguments, got %v", cmd, rest)
		}
		list := c.ListExperiments
		if cmd == "benchmarks" {
			list = c.ListBenchmarks
		}
		names, err := list(ctx)
		if err != nil {
			return err
		}
		for _, n := range names {
			fmt.Fprintln(out, n)
		}
		return nil
	case "status":
		if len(rest) != 0 {
			return usagef("status takes no arguments, got %v", rest)
		}
		res, err := c.Do(ctx, "GET", "/status", nil, "")
		if err != nil {
			return err
		}
		_, werr := out.Write(res.Body)
		return werr
	case "health":
		if len(rest) != 0 {
			return usagef("health takes no arguments, got %v", rest)
		}
		if err := c.Health(ctx); err != nil {
			return err
		}
		fmt.Fprintln(out, "ok")
		return nil
	default:
		return usagef("unknown command %q (sim, experiment, experiments, benchmarks, status, health)", cmd)
	}
}
