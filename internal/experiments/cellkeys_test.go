package experiments

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// recordingJournal is an in-memory CellJournal: it serves lookups from
// what was appended, as a real journal does within one run, and keeps
// every cell for inspection.
type recordingJournal struct {
	mu    sync.Mutex
	cells map[string][]float64
	err   error
}

func (j *recordingJournal) Lookup(key string) ([]float64, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	vals, ok := j.cells[key]
	return vals, ok
}

func (j *recordingJournal) Append(key string, vals []float64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if old, ok := j.cells[key]; ok && !slices.Equal(old, vals) && j.err == nil {
		j.err = fmt.Errorf("cell %q appended twice with different values: %v then %v", key, old, vals)
	}
	j.cells[key] = slices.Clone(vals)
	return nil
}

// listing renders the journal as sorted "key = values" lines, each
// value in its shortest round-trip form.
func (j *recordingJournal) listing() string {
	lines := make([]string, 0, len(j.cells))
	for key, vals := range j.cells {
		strs := make([]string, len(vals))
		for i, v := range vals {
			strs[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		lines = append(lines, key+" = "+strings.Join(strs, " "))
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestCellJournalContract pins the journal contract of every
// experiment: the set of cell keys, each cell's value count and its
// values. A journal written by one build is resumed by another only
// while these hold; a renamed key would otherwise just recompute on
// resume and fail nothing. Regenerate with
// `go test ./internal/experiments -run CellJournalContract -update`
// only after an intentional change to cell keys or results.
func TestCellJournalContract(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	j := &recordingJournal{cells: make(map[string][]float64)}
	s := NewSuite()
	s.Journal = j
	for _, id := range IDs() {
		if err := Render(s, id, io.Discard, "text"); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if j.err != nil {
		t.Fatal(j.err)
	}
	listing := j.listing()
	got := fmt.Sprintf("cells=%d sha256=%x\n", len(j.cells), sha256.Sum256([]byte(listing)))
	path := filepath.Join("testdata", "cellkeys.sha256")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		if testing.Verbose() {
			t.Logf("cell listing:\n%s", listing)
		}
		t.Fatalf("cell keys or values differ from %s (rerun with -v for the listing):\ngot  %swant %s", path, got, want)
	}
}
