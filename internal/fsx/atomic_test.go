package fsx

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// tmpSiblings lists leftover temp files for path in its directory.
func tmpSiblings(t *testing.T, path string) []string {
	t.Helper()
	matches, err := filepath.Glob(path + ".tmp*")
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// A successful write lands the exact bytes at the destination and
// leaves no tmp sibling behind; writing into a subdirectory
// exercises the rename + directory-fsync path on a dir that is not
// the test's cwd.
func TestWriteFileAtomic(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "out.txt")
	// Overwrite an existing file to prove rename replaces, not appends.
	if err := os.WriteFile(path, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := WriteFileAtomic(OS, path, func(w io.Writer) error {
		_, err := w.Write([]byte("fresh contents\n"))
		return err
	})
	if err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "fresh contents\n" {
		t.Fatalf("destination holds %q, want %q", got, "fresh contents\n")
	}
	if left := tmpSiblings(t, path); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

// The destination gets the mode a direct create gives under the
// current umask (os.OpenFile with 0644), not os.CreateTemp's 0600.
func TestWriteFileAtomicMode(t *testing.T) {
	dir := t.TempDir()
	ref, err := os.OpenFile(filepath.Join(dir, "ref"), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Stat()
	ref.Close()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "out.txt")
	err = WriteFileAtomic(OS, path, func(w io.Writer) error {
		_, err := io.WriteString(w, "contents\n")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode() != want.Mode() {
		t.Fatalf("mode = %v, want %v (os.OpenFile with 0644 under this umask)", got.Mode(), want.Mode())
	}
}

// A failing writer must leave the old destination untouched and clean
// up its temp file — the atomicity contract under error.
func TestWriteFileAtomicWriterErrorKeepsOld(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFileAtomic(OS, path, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want the writer's", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old" {
		t.Fatalf("destination changed to %q after failed write", got)
	}
	if left := tmpSiblings(t, path); len(left) != 0 {
		t.Fatalf("temp files left behind after failure: %v", left)
	}
}

// Concurrent writers of the same destination never clobber each
// other: each call uses its own unique tmp name, so every rename is
// atomic and the final file is exactly one writer's complete payload
// — the two-dpmd-one-metrics-file scenario.
func TestWriteFileAtomicConcurrentWritersSameDest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.prom")
	const writers = 8
	payload := func(i int) string {
		return fmt.Sprintf("writer %d line a\nwriter %d line b\n", i, i)
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = WriteFileAtomic(OS, path, func(w io.Writer) error {
				_, err := io.WriteString(w, payload(i))
				return err
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	whole := false
	for i := 0; i < writers; i++ {
		if string(got) == payload(i) {
			whole = true
			break
		}
	}
	if !whole {
		t.Fatalf("destination is not any single writer's complete payload:\n%q", got)
	}
	if left := tmpSiblings(t, path); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

// CleanStaleTmps sweeps both the unique-suffix tmps and the legacy
// fixed .tmp name, and leaves the destination and unrelated files
// alone.
func TestCleanStaleTmps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	keep := []string{"out.txt", "other.txt", "out.txt2.tmp.3"}
	stale := []string{"out.txt.tmp", "out.txt.tmp.0", "out.txt.tmp.1234abcd"}
	for _, name := range append(append([]string{}, keep...), stale...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	n, err := CleanStaleTmps(OS, path)
	if err != nil {
		t.Fatalf("CleanStaleTmps: %v", err)
	}
	if n != len(stale) {
		t.Fatalf("removed %d, want %d", n, len(stale))
	}
	for _, name := range stale {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("stale tmp %s survived the sweep", name)
		}
	}
	for _, name := range keep {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("sweep removed %s: %v", name, err)
		}
	}
}

// SyncDir ignores an unopenable directory (nothing actionable) but
// succeeds on a real one.
func TestSyncDir(t *testing.T) {
	if err := OS.SyncDir(t.TempDir()); err != nil {
		t.Fatalf("SyncDir(real dir): %v", err)
	}
	if err := OS.SyncDir(filepath.Join(t.TempDir(), "missing")); err != nil {
		t.Fatalf("SyncDir(missing dir) = %v, want nil", err)
	}
}
