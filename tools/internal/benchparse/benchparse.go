// Package benchparse parses the textual output of `go test -bench
// -benchmem` into structured results.
package benchparse

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Result is one benchmark line's measurements. BytesPerOp and
// AllocsPerOp are -1 when the run did not use -benchmem.
type Result struct {
	Iterations  int64
	NSPerOp     float64
	BytesPerOp  int64
	AllocsPerOp int64
}

// Parse reads `go test -bench` output and returns the results keyed
// by benchmark name with the "Benchmark" prefix and "-N" GOMAXPROCS
// suffix stripped (so "BenchmarkSimHotPath-8" becomes "SimHotPath").
// Non-benchmark lines are skipped. A name repeated (by -count>1 or by
// alternating runs) gets the median of each field over its lines.
func Parse(r io.Reader) (map[string]Result, error) {
	lines := map[string][]Result{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := CleanName(f[0])
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue // a "Benchmark..." word in free text, not a result line
		}
		res := Result{Iterations: iters, BytesPerOp: -1, AllocsPerOp: -1}
		// The remaining fields come in "<value> <unit>" pairs.
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark %s: bad value %q", name, f[i])
			}
			switch f[i+1] {
			case "ns/op":
				res.NSPerOp = v
			case "B/op":
				res.BytesPerOp = int64(v)
			case "allocs/op":
				res.AllocsPerOp = int64(v)
			}
		}
		lines[name] = append(lines[name], res)
	}
	results := make(map[string]Result, len(lines))
	for name, rs := range lines {
		results[name] = Result{
			Iterations:  int64(median(rs, func(r Result) float64 { return float64(r.Iterations) })),
			NSPerOp:     median(rs, func(r Result) float64 { return r.NSPerOp }),
			BytesPerOp:  int64(median(rs, func(r Result) float64 { return float64(r.BytesPerOp) })),
			AllocsPerOp: int64(median(rs, func(r Result) float64 { return float64(r.AllocsPerOp) })),
		}
	}
	return results, sc.Err()
}

// median returns the median of field over rs: the middle value, or
// the mean of the two middle values of an even count.
func median(rs []Result, field func(Result) float64) float64 {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		vs[i] = field(r)
	}
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// CleanName strips the "Benchmark" prefix and the trailing
// GOMAXPROCS suffix ("-8") from a benchmark identifier, keeping
// sub-benchmark paths intact.
func CleanName(s string) string {
	s = strings.TrimPrefix(s, "Benchmark")
	if i := strings.LastIndexByte(s, '-'); i > 0 {
		if _, err := strconv.Atoi(s[i+1:]); err == nil {
			s = s[:i]
		}
	}
	return s
}

// FormatNS renders a ns/op value without trailing zeros (go test
// prints sub-microsecond results with decimals, larger ones as
// integers).
func FormatNS(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}
