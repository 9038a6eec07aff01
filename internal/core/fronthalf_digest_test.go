package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdpm/internal/disk"
	"sdpm/internal/insert"
	"sdpm/internal/trace"
	"sdpm/internal/tracegen"
	"sdpm/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// digest accumulates values into a sha256, writing every float as its
// exact IEEE-754 bits so that no rounding hides a change.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) ints(vs ...int64) {
	for _, v := range vs {
		fmt.Fprintf(d.h, "%d,", v)
	}
}

func (d *digest) floats(vs ...float64) {
	for _, v := range vs {
		fmt.Fprintf(d.h, "%016x,", math.Float64bits(v))
	}
}

func (d *digest) str(s string) { fmt.Fprintf(d.h, "%q,", s) }

func (d *digest) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }

func (d *digest) op(o trace.PowerOp) {
	d.ints(int64(o.Disk), int64(o.Kind), int64(o.RPM))
	d.floats(o.PredictedIdleMS)
}

func sitesDigest(ss []tracegen.Site, files []string) string {
	d := newDigest()
	for _, s := range ss {
		d.ints(int64(s.Nest), s.Iter)
		d.str(files[s.File-1])
		d.ints(s.Unit, int64(s.Disk), s.Block, s.Bytes, int64(s.Kind), s.CyclePos)
	}
	return d.sum()
}

func eventsDigest(tr *trace.Trace) string {
	d := newDigest()
	d.str(tr.Program)
	d.ints(int64(tr.NumDisks))
	for _, e := range tr.Events {
		d.ints(int64(e.Kind))
		d.floats(e.GapMS)
		if e.Kind == trace.EvPowerOp {
			d.op(e.Op)
			continue
		}
		r := e.Req
		d.floats(r.ArrivalMS)
		d.ints(int64(r.Disk), r.Block, r.Bytes, int64(r.Kind))
		d.str(tr.FileName(r.File))
		d.ints(r.Unit, int64(r.Nest), r.Iter)
	}
	return d.sum()
}

// planDigest hashes a plan. Its per-gap tuples (disk, gap, action,
// rpm, predicted idle, trailing) are the ones plans once recorded as
// decisions, rebuilt from Levels and PredictedIdle: the action is 0
// to stay at maxRPM, 1 to dip and 2 for standby, the rpm is the dip
// level or else maxRPM, and the last gap of a disk is the trailing one.
func planDigest(p *insert.Plan, maxRPM int) string {
	d := newDigest()
	d.ints(int64(p.Mode), int64(p.Ops))
	d.floats(p.PredictedEndMS)
	for dk := range p.Levels {
		for g, level := range p.Levels[dk] {
			act, rpm := 1, level
			switch level {
			case maxRPM:
				act = 0
			case disk.Standby:
				act, rpm = 2, maxRPM
			}
			d.ints(int64(dk), int64(g), int64(act), int64(rpm))
			d.floats(p.PredictedIdle[dk][g])
			if g == len(p.Levels[dk])-1 {
				d.ints(1)
			} else {
				d.ints(0)
			}
		}
	}
	for i := range p.Levels {
		d.ints(int64(len(p.Levels[i])))
		for _, l := range p.Levels[i] {
			d.ints(int64(l))
		}
		d.floats(p.PredictedIdle[i]...)
	}
	for _, c := range p.Calls {
		d.ints(int64(c.Nest), c.Iter)
		d.op(c.Op)
	}
	return d.sum()
}

// TestFrontHalfDigests pins the compiler front half bit for bit: the
// request sites, the CMTPM and CMDRPM instrumented traces and their
// plans (in insertion order) for every benchmark and code version
// under the benchmark's default configuration. The golden outputs
// render floats rounded and never show Plan.Calls, so an optimization
// of the walker, the buffer cache or the call insertion must keep
// these digests. Regenerate with
// `go test ./internal/core -run FrontHalfDigests -update` only after
// an intentional change to the front half's output.
func TestFrontHalfDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("prepares every benchmark version")
	}
	var got strings.Builder
	for _, b := range workloads.All() {
		cfg := DefaultConfig()
		cfg.Model = b.Model()
		cfg.CacheUnits = b.CacheUnits
		for _, v := range AllVersions() {
			in, _, err := PrepareVersion(b.Name, b.Program, v, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", b.Name, v, err)
			}
			fmt.Fprintf(&got, "%s %s sites=%d sha256=%s\n", b.Name, v, len(in.Sites), sitesDigest(in.Sites, in.Files))
			for _, mode := range []insert.Mode{insert.ModeTPM, insert.ModeDRPM} {
				tr, plan, err := in.Instrumented(mode)
				if err != nil {
					t.Fatalf("%s %s %s: %v", b.Name, v, mode, err)
				}
				fmt.Fprintf(&got, "%s %s %s events=%d sha256=%s plan ops=%d sha256=%s\n",
					b.Name, v, mode, len(tr.Events), eventsDigest(tr), plan.Ops, planDigest(plan, cfg.Disk.MaxRPM))
			}
		}
	}
	path := filepath.Join("testdata", "front_half.sha256")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("front-half digests differ from %s:\ngot:\n%swant:\n%s", path, got.String(), want)
	}
}
