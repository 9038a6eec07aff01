// Command benchdiff compares two benchmark measurement sets and fails
// when any benchmark regressed beyond a tolerance.
//
//	benchdiff [-tolerance PCT] [-bench REGEXP] OLD NEW
//
// OLD and NEW are files ("-" for stdin, at most once) in either of the
// repository's two benchmark formats, detected per file:
//
//   - raw `go test -bench [-benchmem]` text (results/bench_baseline.txt)
//   - the benchjson JSON document (results/BENCH_sim.json)
//
// Benchmarks are matched by name with the "Benchmark" prefix and
// GOMAXPROCS suffix stripped, exactly as benchjson keys them; a name
// repeated in one file (go test -count, or the alternating pairs of
// `make bench-diff-rev`) stands for the median of its lines. For
// every name present in both sets the ns/op delta is printed; the
// exit status is 1 if any compared benchmark is slower than OLD by
// more than -tolerance percent (default 25). Names present on only
// one side are reported as warnings and do not fail the comparison —
// a renamed or newly added benchmark should not break CI, a slower
// one should.
//
// Used by `make bench-diff` and the CI bench-smoke job to guard the
// simulator hot paths against performance regressions, and by `make
// bench-diff-rev` to compare a revision with the working tree.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"regexp"
	"sort"
	"strings"

	"sdpm/internal/cli"
	"sdpm/tools/internal/benchparse"
)

func main() {
	tolerance := flag.Float64("tolerance", 25, "allowed ns/op regression in percent before failing")
	benchRE := flag.String("bench", "", "compare only benchmarks whose cleaned name matches this regexp")
	verbose, quiet := cli.LogFlags(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchdiff [-tolerance PCT] [-bench REGEXP] OLD NEW\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	cli.SetupLogging("benchdiff", *verbose, *quiet)
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	code, err := run(os.Stdout, flag.Arg(0), flag.Arg(1), *tolerance, *benchRE)
	if err != nil {
		// Exit 2 distinguishes "comparison could not run" from a
		// regression verdict (exit 1), so the structured log replaces
		// only the print, not the contract.
		slog.Error("fatal", "err", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(out io.Writer, oldPath, newPath string, tolerance float64, benchRE string) (int, error) {
	if tolerance < 0 {
		return 0, fmt.Errorf("negative tolerance %g", tolerance)
	}
	var filter *regexp.Regexp
	if benchRE != "" {
		var err error
		if filter, err = regexp.Compile(benchRE); err != nil {
			return 0, fmt.Errorf("bad -bench regexp: %v", err)
		}
	}
	if oldPath == "-" && newPath == "-" {
		return 0, fmt.Errorf("at most one input may be stdin")
	}
	oldSet, err := load(oldPath)
	if err != nil {
		return 0, fmt.Errorf("%s: %v", oldPath, err)
	}
	newSet, err := load(newPath)
	if err != nil {
		return 0, fmt.Errorf("%s: %v", newPath, err)
	}

	names := make([]string, 0, len(oldSet))
	for name := range oldSet {
		names = append(names, name)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(out)
	defer bw.Flush()
	compared, failed := 0, 0
	for _, name := range names {
		if filter != nil && !filter.MatchString(name) {
			continue
		}
		o := oldSet[name]
		n, ok := newSet[name]
		if !ok {
			fmt.Fprintf(bw, "warning: %s only in %s\n", name, oldPath)
			continue
		}
		if o.NSPerOp <= 0 {
			fmt.Fprintf(bw, "warning: %s has non-positive old ns/op %g; skipping\n", name, o.NSPerOp)
			continue
		}
		compared++
		deltaPct := (n.NSPerOp - o.NSPerOp) / o.NSPerOp * 100
		verdict := "ok"
		if deltaPct > tolerance {
			verdict = fmt.Sprintf("REGRESSION (> %g%%)", tolerance)
			failed++
		}
		fmt.Fprintf(bw, "%-28s %14s -> %14s ns/op  %+7.1f%%  %s\n",
			name, benchparse.FormatNS(o.NSPerOp), benchparse.FormatNS(n.NSPerOp), deltaPct, verdict)
	}
	for name := range newSet {
		if _, ok := oldSet[name]; !ok && (filter == nil || filter.MatchString(name)) {
			fmt.Fprintf(bw, "warning: %s only in %s\n", name, newPath)
		}
	}
	if compared == 0 {
		return 0, fmt.Errorf("no benchmarks in common between %s and %s", oldPath, newPath)
	}
	if failed > 0 {
		fmt.Fprintf(bw, "%d of %d compared benchmark(s) regressed beyond %g%%\n", failed, compared, tolerance)
		return 1, nil
	}
	fmt.Fprintf(bw, "%d benchmark(s) within %g%% tolerance\n", compared, tolerance)
	return 0, nil
}

// load reads one measurement set, accepting either raw `go test
// -bench` text or a benchjson document (sniffed on the first
// non-space byte).
func load(path string) (map[string]benchparse.Result, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	if trimmed := strings.TrimSpace(string(data)); strings.HasPrefix(trimmed, "{") {
		var doc map[string]struct {
			NSPerOp     float64 `json:"ns_per_op"`
			BytesPerOp  int64   `json:"bytes_per_op"`
			AllocsPerOp int64   `json:"allocs_per_op"`
			Iterations  int64   `json:"iterations"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("parsing as benchjson: %v", err)
		}
		out := make(map[string]benchparse.Result, len(doc))
		for name, r := range doc {
			out[name] = benchparse.Result{
				Iterations: r.Iterations, NSPerOp: r.NSPerOp,
				BytesPerOp: r.BytesPerOp, AllocsPerOp: r.AllocsPerOp,
			}
		}
		return out, nil
	}
	res, err := benchparse.Parse(strings.NewReader(string(data)))
	if err != nil {
		return nil, err
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("no benchmark lines found")
	}
	return res, nil
}
