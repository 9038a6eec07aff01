// Command bench is the repository's end-to-end benchmark. It drives
// four workloads — the offline experiment sweep and three kinds of
// dpmd traffic — checks every output against an independent
// in-process computation, and prints each metric as
// "workload metric value unit n=samples" followed by one JSON result
// line per workload. See README.md for the workloads, the metrics and
// how to compare two commits.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [--workload sweep,serve-hot,...] [--seed N] [--seconds S] [--trace 0|1]
//
// run.sh builds this harness and cmd/dpmd into .bench_build/ and runs
// the harness. Untraced runs (--trace 0) report the end-to-end metrics.
// Traced runs (--trace 1) record spans around every call the harness
// makes into a layer, write them to --spans at exit, and report the
// per-layer metrics derived from span self time and dpmd's /metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workloadFuncs maps each workload name to the function that runs it.
var workloadFuncs = map[string]func(context.Context, *env, *result) error{
	"sweep":      runSweep,
	"serve-hot":  runHot,
	"serve-cold": runCold,
	"serve-exp":  runExp,
}

// workloadNames lists the workloads in their default order.
var workloadNames = []string{"sweep", "serve-hot", "serve-cold", "serve-exp"}

// env is what every workload function needs.
type env struct {
	dpmd   string        // dpmd binary
	seed   int64         // workload input seed
	window time.Duration // how long one run measures
	rec    *recorder     // span recorder; nil on untraced runs
	golden []byte        // results/experiments.txt: the expected sweep bytes
}

func main() { os.Exit(run()) }

func run() int {
	workloadFlag := flag.String("workload", strings.Join(workloadNames, ","), "comma-separated workloads to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long each workload measures")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	spansOut := flag.String("spans", "", "span output file of a traced run (default .bench_build/spans-<workload>-seed<N>.jsonl)")
	root := flag.String("root", ".", "repository checkout root")
	dpmd := flag.String("dpmd", "", "dpmd binary (default <root>/.bench_build/dpmd)")
	spreadDir := flag.String("spread", "", "print the run-to-run spread of the <workload>.jsonl result files in this directory, then exit")
	flag.Parse()

	if *spreadDir != "" {
		if err := printSpread(os.Stdout, *spreadDir, filepath.Join(*root, "BENCHMARK.json")); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be at least 1")
		return 2
	}
	names := strings.Split(*workloadFlag, ",")
	for _, n := range names {
		if workloadFuncs[n] == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", n, strings.Join(workloadNames, ", "))
			return 2
		}
	}
	golden, err := os.ReadFile(filepath.Join(*root, "results", "experiments.txt"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: reading the expected sweep output:", err)
		return 1
	}
	e := &env{
		dpmd: *dpmd, seed: *seed,
		window: time.Duration(*seconds) * time.Second,
		golden: golden,
	}
	if e.dpmd == "" {
		e.dpmd = filepath.Join(*root, ".bench_build", "dpmd")
	}
	want := endToEnd
	if *traceFlag == 1 {
		e.rec = newRecorder()
		want = perLayer()
	}

	fmt.Printf("# bench go=%s nproc=%d gomaxprocs=%d seed=%d seconds=%d trace=%d\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), *seed, *seconds, *traceFlag)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code := 0
	for _, name := range names {
		e.rec.setWorkload(name)
		r := newResult(name)
		if err := workloadFuncs[name](ctx, e, r); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		if !r.report(os.Stdout, want) {
			code = 1
		}
	}
	if e.rec != nil {
		path := *spansOut
		if path == "" {
			path = spanPath(*root, strings.Join(names, "+"), *seed)
		}
		if err := e.rec.writeFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "bench: spans written to %s\n", path)
	}
	return code
}
