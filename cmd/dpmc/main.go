// Command dpmc is the compiler front end: it parses a DSL program
// (or loads a built-in benchmark), optionally applies one of the
// Section 6 code/layout transformations, and either prints the disk
// access pattern, prints the transformed program, or emits the I/O
// trace the simulator consumes: plain (-mode base) or instrumented
// with power-management calls (-mode tpm or drpm).
//
// Usage:
//
//	dpmc -bench swim -dap                      # print the DAP
//	dpmc -bench swim -mode base > swim.trace    # plain trace
//	dpmc -dsl prog.sdpm -mode drpm -o out.trace # instrument
//	dpmc -bench mesa -version TL+DL -print      # show transformed code
//
// -v enables debug-level structured logs on stderr; -q keeps only
// warnings and errors.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"sdpm"
	"sdpm/internal/cli"
)

func main() {
	bench := flag.String("bench", "", "built-in benchmark name")
	dslFile := flag.String("dsl", "", "DSL program file")
	version := flag.String("version", "orig", "code version: orig, LF, TL, LF+DL, TL+DL")
	mode := flag.String("mode", "drpm", "trace mode: base (no power calls), tpm or drpm")
	dap := flag.Bool("dap", false, "print the disk access pattern and exit")
	show := flag.Bool("print", false, "print the (transformed) program in DSL form and exit")
	annotate := flag.Bool("calls", false, "print the program with the inserted power calls as comments and exit")
	out := flag.String("o", "", "write the trace to this file (default stdout)")
	disks := flag.Int("disks", 8, "number of disks")
	unit := flag.Int64("unit", 64<<10, "stripe unit bytes")
	layoutSpecs := flag.String("layout", "", "per-array layouts: array=start:factor:unitKB,...")
	verbose, quiet := cli.LogFlags(flag.CommandLine)
	flag.Parse()
	cli.SetupLogging("dpmc", *verbose, *quiet)

	modes := map[string]sdpm.Scheme{"base": sdpm.Base, "tpm": sdpm.CMTPM, "drpm": sdpm.CMDRPM}
	scheme, ok := modes[*mode]
	if !ok {
		cli.Fatal(fmt.Errorf("unknown mode %q (base, tpm or drpm)", *mode))
	}
	w, err := cli.LoadWorkload(*bench, *dslFile)
	if err != nil {
		cli.Fatal(err)
	}
	cfg := sdpm.DefaultConfig()
	cfg.NumDisks = *disks
	cfg.StripeUnitBytes = *unit
	if err := cli.ApplyLayoutSpecs(w, *layoutSpecs); err != nil {
		cli.Fatal(err)
	}

	if *version != string(sdpm.Orig) {
		tw, applied, err := w.Transform(sdpm.Version(*version), cfg)
		if err != nil {
			cli.Fatal(err)
		}
		if !applied {
			slog.Warn("transformation not applicable; program unchanged", "workload", w.Name(), "version", *version)
		}
		w = tw
	}

	switch {
	case *annotate:
		out, err := w.AnnotatedDSL(scheme, cfg)
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Print(out)
	case *show:
		fmt.Print(w.DSL())
	case *dap:
		d, err := w.DAP(cfg)
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Print(d)
	default:
		dst := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				cli.Fatal(err)
			}
			defer f.Close()
			dst = f
		}
		if err := w.WriteTrace(dst, scheme, cfg); err != nil {
			cli.Fatal(err)
		}
	}
}
