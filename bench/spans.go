package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans are
// recorded only around calls into public functions from the harness's
// own code; the program under test is not instrumented.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: no parent
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"` // since the recorder was created
	EndNS    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay only a nil check per call.
type recorder struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// setWorkload labels the spans started from now on.
func (r *recorder) setWorkload(w string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.workload = w
	r.mu.Unlock()
}

// start opens a span under parent and returns its id (0 when r is nil).
func (r *recorder) start(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name,
		Workload: r.workload, StartNS: now, EndNS: -1,
	})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNS = now
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile writes every span as one JSON object per line.
func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in nanoseconds, keyed by
// span id: its duration minus the part of its interval that the union
// of its children covers. Children may overlap each other (concurrent
// clients), so their union is taken, not their sum. Spans left open
// count as zero-length.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			out[s.ID] = 0
			continue
		}
		out[s.ID] = (s.EndNS - s.StartNS) - covered(s.StartNS, s.EndNS, children[s.ID])
	}
	return out
}

// covered returns how much of [lo, hi) the union of the children's
// intervals covers.
func covered(lo, hi int64, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartNS, lo), min(k.EndNS, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfMSByName sums the self time, in milliseconds, of every span in
// the subtree rooted at root (root included), grouped by span name.
// Span ids grow with start order, so a parent always precedes its
// children.
func selfMSByName(spans []span, root int) map[string]float64 {
	in := map[int]bool{root: true}
	var tree []span
	for _, s := range spans {
		if s.ID == root || in[s.Parent] {
			in[s.ID] = true
			tree = append(tree, s)
		}
	}
	self := selfTimes(tree)
	out := make(map[string]float64)
	for _, s := range tree {
		out[s.Name] += float64(self[s.ID]) / 1e6
	}
	return out
}

// spanPath returns the default span file for a workload and seed.
func spanPath(root, workload string, seed int64) string {
	return filepath.Join(root, ".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
}
