package benchparse

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: sdpm/internal/sim
cpu: AMD EPYC
BenchmarkSimHotPath-8            	     290	   4106932 ns/op	   27312 B/op	      24 allocs/op
BenchmarkSimHotPathDRPM-8        	     118	   9929428 ns/op	   34880 B/op	      70 allocs/op
BenchmarkOpenLoopHotPath-8       	     512	   2300781 ns/op	  131072 B/op	      12 allocs/op
BenchmarkParallel/workers=4-8    	      40	  28000000 ns/op
BenchmarkTiny-8                  	12000000	       0.5 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	sdpm/internal/sim	5.123s
`

func TestParse(t *testing.T) {
	got, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Result{
		"SimHotPath":         {Iterations: 290, NSPerOp: 4106932, BytesPerOp: 27312, AllocsPerOp: 24},
		"SimHotPathDRPM":     {Iterations: 118, NSPerOp: 9929428, BytesPerOp: 34880, AllocsPerOp: 70},
		"OpenLoopHotPath":    {Iterations: 512, NSPerOp: 2300781, BytesPerOp: 131072, AllocsPerOp: 12},
		"Parallel/workers=4": {Iterations: 40, NSPerOp: 28000000, BytesPerOp: -1, AllocsPerOp: -1},
		"Tiny":               {Iterations: 12000000, NSPerOp: 0.5, BytesPerOp: 0, AllocsPerOp: 0},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d results, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("missing %s", name)
			continue
		}
		if g != w {
			t.Errorf("%s = %+v, want %+v", name, g, w)
		}
	}
}

func TestParseRepeatedNamesTakeTheMedian(t *testing.T) {
	got, err := Parse(strings.NewReader(`BenchmarkA-2   10   500 ns/op   64 B/op   3 allocs/op
BenchmarkA-2   12   100 ns/op   32 B/op   1 allocs/op
BenchmarkA-2   11   300 ns/op   48 B/op   2 allocs/op
BenchmarkB-2    5    10 ns/op
BenchmarkB-2    7    40 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Result{
		"A": {Iterations: 11, NSPerOp: 300, BytesPerOp: 48, AllocsPerOp: 2},
		"B": {Iterations: 6, NSPerOp: 25, BytesPerOp: -1, AllocsPerOp: -1},
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s = %+v, want %+v", name, g, w)
		}
	}
}

func TestParseSkipsNoise(t *testing.T) {
	got, err := Parse(strings.NewReader("PASS\nok \tsdpm\t0.1s\nBenchmarkFoo results pending\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("parsed %d results from noise, want 0", len(got))
	}
}

func TestCleanName(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkSimHotPath-8":      "SimHotPath",
		"BenchmarkSimHotPath":        "SimHotPath",
		"BenchmarkParallel/w=4-16":   "Parallel/w=4",
		"BenchmarkDash-name-2":       "Dash-name",
		"BenchmarkTrailingDash-text": "TrailingDash-text",
	} {
		if got := CleanName(in); got != want {
			t.Errorf("CleanName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatNS(t *testing.T) {
	if got := FormatNS(4106932); got != "4106932" {
		t.Errorf("FormatNS(4106932) = %q", got)
	}
	if got := FormatNS(0.5); got != "0.5" {
		t.Errorf("FormatNS(0.5) = %q", got)
	}
}
