// Package cli holds the shared helpers of the command-line tools:
// workload loading, layout-spec parsing, spec-file expansion and
// output files.
package cli

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"sdpm"
	"sdpm/internal/fsx"
)

// WriteOutput writes one output of a tool: path "-" (or an empty
// path) sends it to std, and any other path is replaced atomically
// through fsx.WriteFileAtomic, so a failed or interrupted write leaves
// the old file (or none) and never a partial one.
func WriteOutput(path string, std io.Writer, write func(io.Writer) error) error {
	if path == "-" || path == "" {
		return write(std)
	}
	return fsx.WriteFileAtomic(fsx.OS, path, write)
}

// LoadWorkload resolves the -bench / -dsl flag pair common to the
// tools: exactly one must be set.
func LoadWorkload(bench, dslFile string) (*sdpm.Workload, error) {
	switch {
	case bench != "" && dslFile != "":
		return nil, fmt.Errorf("use either -bench or -dsl, not both")
	case bench != "":
		return sdpm.Benchmark(bench)
	case dslFile != "":
		src, err := os.ReadFile(dslFile)
		if err != nil {
			return nil, err
		}
		return sdpm.ParseProgram(string(src))
	default:
		return nil, fmt.Errorf("one of -bench or -dsl is required (benchmarks: %v)", sdpm.BenchmarkNames())
	}
}

// ExpandSpecFile resolves a -faults flag value: "@path" becomes the
// contents of that file, and anything else is returned unchanged.
// The spec parsers accept spec text only, so this is the one place a
// spec is read from a file — on the command line, never from a
// request field.
func ExpandSpecFile(spec string) (string, error) {
	path, ok := strings.CutPrefix(strings.TrimSpace(spec), "@")
	if !ok {
		return spec, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("cli: reading spec: %w", err)
	}
	return string(data), nil
}

// ApplyLayoutSpecs parses and applies -layout specifications of the
// form "array=start:factor:unitKB", comma separated — the command
// line route for handing the compiler pre-existing disk layouts
// (Section 3 of the paper).
func ApplyLayoutSpecs(w *sdpm.Workload, specs string) error {
	if specs == "" {
		return nil
	}
	for _, spec := range strings.Split(specs, ",") {
		name, tuple, ok := strings.Cut(strings.TrimSpace(spec), "=")
		if !ok {
			return fmt.Errorf("cli: layout %q: want array=start:factor:unitKB", spec)
		}
		parts := strings.Split(tuple, ":")
		if len(parts) != 3 {
			return fmt.Errorf("cli: layout %q: want start:factor:unitKB", spec)
		}
		start, err := strconv.Atoi(parts[0])
		if err != nil {
			return fmt.Errorf("cli: layout %q: bad starting disk: %v", spec, err)
		}
		factor, err := strconv.Atoi(parts[1])
		if err != nil {
			return fmt.Errorf("cli: layout %q: bad stripe factor: %v", spec, err)
		}
		unitKB, err := strconv.Atoi(parts[2])
		if err != nil {
			return fmt.Errorf("cli: layout %q: bad unit size: %v", spec, err)
		}
		if err := w.SetLayout(name, start, factor, int64(unitKB)*1024); err != nil {
			return err
		}
	}
	return nil
}
