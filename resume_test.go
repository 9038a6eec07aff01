package sdpm

// Crash-and-resume tests for the journaled experiment engine: a run
// interrupted mid-sweep (simulated by truncating its journal, torn
// tail included) must resume and render byte-identically to an
// uninterrupted run, at any worker count (docs/robustness.md,
// "Journal and resume").

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"testing"

	"sdpm/internal/journal"
)

// journaledRun renders one experiment with a journal attached,
// returning the rendered bytes and the Prometheus metrics dump.
func journaledRun(t *testing.T, id, journalPath string, workers int, resume bool) ([]byte, []byte) {
	t.Helper()
	var out, metrics bytes.Buffer
	err := RunExperiments(id, &out, Options{
		Workers: workers,
		Journal: journalPath,
		Resume:  resume,
		Metrics: &metrics,
	})
	if err != nil {
		t.Fatalf("%s (journal=%s resume=%t): %v", id, journalPath, resume, err)
	}
	return out.Bytes(), metrics.Bytes()
}

// metricValue extracts one Prometheus counter value from a dump.
func metricValue(t *testing.T, dump []byte, name string) int {
	t.Helper()
	m := regexp.MustCompile(name + ` (\d+)`).FindSubmatch(dump)
	if m == nil {
		t.Fatalf("metric %s missing from dump:\n%s", name, dump)
	}
	n, err := strconv.Atoi(string(m[1]))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestKillAndResumeByteIdentical simulates a crash mid-sweep: a full
// journaled run's file is cut back to a prefix ending in a torn
// (partially written) record, and the rerun with Resume must skip the
// surviving cells, recompute the rest, and render byte-identically to
// the cold run — at one, two, and eight workers.
func TestKillAndResumeByteIdentical(t *testing.T) {
	const id = "ablation-noise"
	cold := renderExperiment(t, id, 2)

	dir := t.TempDir()
	full := filepath.Join(dir, "full.journal")
	out, _ := journaledRun(t, id, full, 2, false)
	if !bytes.Equal(out, cold) {
		t.Fatalf("journaled run differs from cold run:\n%s\nvs\n%s", out, cold)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("journal too small to cut (%d lines)", len(lines))
	}
	// Keep the first half of the records, then append a torn tail: the
	// next record cut mid-way, as a crash between write and fsync
	// completion would leave it.
	keep := len(lines) / 2
	crashed := append([]byte{}, bytes.Join(lines[:keep], nil)...)
	torn := lines[keep]
	crashed = append(crashed, torn[:len(torn)/2]...)

	for _, workers := range []int{1, 2, 8} {
		path := filepath.Join(dir, "crashed"+strconv.Itoa(workers)+".journal")
		if err := os.WriteFile(path, crashed, 0o644); err != nil {
			t.Fatal(err)
		}
		got, metrics := journaledRun(t, id, path, workers, true)
		if !bytes.Equal(got, cold) {
			t.Errorf("workers=%d: resumed output differs from cold run\n--- cold ---\n%s\n--- resumed ---\n%s",
				workers, cold, got)
		}
		hits := metricValue(t, metrics, "sdpm_journal_hits_total")
		misses := metricValue(t, metrics, "sdpm_journal_misses_total")
		if hits == 0 {
			t.Errorf("workers=%d: resume replayed no cells (hits=0, misses=%d)", workers, misses)
		}
		if misses == 0 {
			t.Errorf("workers=%d: resume recomputed nothing — truncation had no effect", workers)
		}
	}
}

// TestResumeFromFinalizedJournal: resuming from a complete journal
// recomputes nothing and still renders byte-identically.
func TestResumeFromFinalizedJournal(t *testing.T) {
	const id = "ablation-noise"
	journal := filepath.Join(t.TempDir(), "exp.journal")
	first, _ := journaledRun(t, id, journal, 2, false)
	second, metrics := journaledRun(t, id, journal, 4, true)
	if !bytes.Equal(first, second) {
		t.Errorf("resumed output differs:\n%s\nvs\n%s", first, second)
	}
	if misses := metricValue(t, metrics, "sdpm_journal_misses_total"); misses != 0 {
		t.Errorf("full journal still recomputed %d cells", misses)
	}
	if hits := metricValue(t, metrics, "sdpm_journal_hits_total"); hits == 0 {
		t.Error("full journal produced no hits")
	}
}

// TestInertFaultSpecKeepsCellKeys: a fault spec that injects nothing
// leaves the configuration fault-free, so its seed no longer splits
// the journal's cell keys from a fault-free run's.
func TestInertFaultSpecKeepsCellKeys(t *testing.T) {
	keys := func(spec string, seed int64) []string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "exp.journal")
		opts := Options{Journal: path, FaultSpec: spec, FaultSeed: seed}
		if err := RunExperiments("table2", io.Discard, opts); err != nil {
			t.Fatalf("faults %q seed %d: %v", spec, seed, err)
		}
		j, err := journal.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		return j.Keys()
	}
	want := keys("", 0)
	for _, spec := range []string{"off", "retries=3"} {
		if got := keys(spec, 7); !slices.Equal(got, want) {
			t.Errorf("faults %q seed 7 journaled keys\n%q\nwant the fault-free run's\n%q", spec, got, want)
		}
	}
}
