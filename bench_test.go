package sdpm

// The benchmark harness: one testing.B benchmark per table and figure
// of the paper's evaluation, plus the ablation studies. Each
// benchmark regenerates its artifact from scratch — workload
// construction, compiler analysis, instrumentation, and simulation —
// and reports domain-specific metrics (simulated requests per second
// of wall time) alongside the usual ns/op. Run with:
//
//	go test -bench=. -benchmem
//
// The rendered artifacts themselves come from `go run ./cmd/dpmexp`
// or RunExperiment; the benchmarks exist to time and exercise the
// full regeneration paths.

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	// One untimed warmup: these benchmarks run few iterations, and the
	// first one pays heap growth and page faults that would otherwise
	// dominate the mean.
	if err := RunExperiment(id, io.Discard); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := RunExperiment(id, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates the simulation-parameter listing.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2 regenerates the benchmark-characteristics table
// (base runs of all six workloads).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFigure3 regenerates the normalized-energy comparison of
// the seven schemes over the six workloads.
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFigure4 regenerates the normalized execution times.
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkTable3 regenerates the disk-speed misprediction analysis.
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkFigure5 regenerates the stripe-size energy sensitivity.
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFigure6 regenerates the stripe-size time sensitivity.
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFigure7 regenerates the stripe-factor energy sensitivity.
func BenchmarkFigure7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFigure8 regenerates the stripe-factor time sensitivity.
func BenchmarkFigure8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFigure13 regenerates the code-transformation comparison
// (every version x compiler-managed scheme x workload).
func BenchmarkFigure13(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkAblationPreactivation regenerates the pre-activation
// ablation (DESIGN.md section 5).
func BenchmarkAblationPreactivation(b *testing.B) { benchExperiment(b, "ablation-preactivation") }

// BenchmarkAblationNoise regenerates the cycle-estimation noise
// ablation.
func BenchmarkAblationNoise(b *testing.B) { benchExperiment(b, "ablation-noise") }

// BenchmarkAblationNoCache regenerates the buffer-cache ablation.
func BenchmarkAblationNoCache(b *testing.B) { benchExperiment(b, "ablation-cache") }

// BenchmarkAblationClustering regenerates the LF+DL nest-clustering
// ablation.
func BenchmarkAblationClustering(b *testing.B) { benchExperiment(b, "ablation-clustering") }

// BenchmarkSimulatorThroughput measures the core simulator on the
// largest workload (wupwise, ~23k requests), reporting simulated
// requests per second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, err := Benchmark("wupwise")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	// Prepare once so the loop times simulation, not analysis.
	res, err := w.Run(Base, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Run(IDRPM, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Requests*b.N)/b.Elapsed().Seconds(), "reqs/s")
}

// BenchmarkCompilerInstrumentation measures one CMDRPM run of the
// largest workload from scratch: Prepare (placement and the access
// walk), power-call insertion, trace compilation and simulation.
// BenchmarkPrepare and BenchmarkInstrument in internal/core time the
// compiler layers alone.
func BenchmarkCompilerInstrumentation(b *testing.B) {
	w, err := Benchmark("wupwise")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Run(CMDRPM, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGeneration measures access-pattern extraction and
// trace generation for every workload in sequence.
func BenchmarkTraceGeneration(b *testing.B) {
	ws := make([]*Workload, 0, 6)
	for _, name := range BenchmarkNames() {
		w, err := Benchmark(name)
		if err != nil {
			b.Fatal(err)
		}
		ws = append(ws, w)
	}
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			if _, err := w.Requests(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExtensionInterchange regenerates the loop-interchange
// extension comparison.
func BenchmarkExtensionInterchange(b *testing.B) { benchExperiment(b, "ext-interchange") }

// BenchmarkAblationOpenLoop regenerates the closed-vs-open-loop
// ablation.
func BenchmarkAblationOpenLoop(b *testing.B) { benchExperiment(b, "ablation-openloop") }

// BenchmarkAblationSeekModel regenerates the seek-model ablation.
func BenchmarkAblationSeekModel(b *testing.B) { benchExperiment(b, "ablation-seek") }

// BenchmarkEnergyBreakdown regenerates the energy-breakdown table.
func BenchmarkEnergyBreakdown(b *testing.B) { benchExperiment(b, "breakdown") }

// BenchmarkExtensionMultiprogram regenerates the multiprogrammed
// shared-subsystem extension.
func BenchmarkExtensionMultiprogram(b *testing.B) { benchExperiment(b, "ext-multiprogram") }

// benchSuite regenerates the scheme matrix (Figure 3: 6 benchmarks x
// 7 schemes, each cell a full simulation) with a fixed worker count.
// Comparing Sequential against Parallel shows the worker-pool speedup
// (roughly min(workers, cells) bounded by the slowest cell) on
// multi-core machines; both render byte-identical output.
func benchSuite(b *testing.B, workers int) {
	b.Helper()
	// Untimed warmup, as in benchExperiment.
	if err := RunExperiments("fig3", io.Discard, Options{Workers: workers}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := RunExperiments("fig3", io.Discard, Options{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepAll regenerates every experiment as bench/run.sh's
// sweep workload does: RunExperiments("all") on a fresh suite at
// GOMAXPROCS workers, after one untimed warm-up, with each
// iteration's output checked against results/experiments.txt.
func BenchmarkSweepAll(b *testing.B) {
	want, err := os.ReadFile(filepath.Join("results", "experiments.txt"))
	if err != nil {
		b.Fatal(err)
	}
	// The golden output is rendered with dpmexp's default fault seed.
	opts := Options{Workers: runtime.GOMAXPROCS(0), FaultSeed: 1}
	sweep := func() {
		var buf bytes.Buffer
		if err := RunExperiments("all", &buf, opts); err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			b.Fatalf("sweep output differs from results/experiments.txt (%d vs %d bytes)", buf.Len(), len(want))
		}
	}
	sweep()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}

// BenchmarkSuiteSequential runs the Figure 3 grid on one worker.
func BenchmarkSuiteSequential(b *testing.B) { benchSuite(b, 1) }

// BenchmarkSuiteParallel runs the Figure 3 grid on GOMAXPROCS
// workers.
func BenchmarkSuiteParallel(b *testing.B) { benchSuite(b, 0) }
