package fsx

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestCrashWriteFileAtomicOldOrNew enumerates every crash point of an
// atomic overwrite — create-temp, write, fsync, rename, dir-sync —
// and asserts the recovery invariant at each: after restoring the
// durable bytes and sweeping stale tmps, the destination holds the
// complete old bytes or the complete new bytes, never a mix, and no
// tmp sibling remains visible. The final crash-free point must land
// the new bytes.
func TestCrashWriteFileAtomicOldOrNew(t *testing.T) {
	oldBytes := []byte("old metrics snapshot\nline two\n")
	newBytes := []byte("NEW metrics snapshot — longer payload\nline two\nline three\n")

	scenario := func(fs FS) error {
		return WriteFileAtomic(fs, "metrics.prom", func(w io.Writer) error {
			_, err := w.Write(newBytes)
			return err
		})
	}
	setup := func(fa *Faulty) { fa.SetFile("metrics.prom", oldBytes) }

	err := Explore(3, setup, scenario, func(p CrashPoint) error {
		// The durable destination is old-complete or new-complete at
		// every single point — the mix-free invariant.
		dest, ok := p.Durable["metrics.prom"]
		if !ok {
			return fmt.Errorf("crash at op %d: destination vanished from the durable state", p.Op)
		}
		if !bytes.Equal(dest, oldBytes) && !bytes.Equal(dest, newBytes) {
			return fmt.Errorf("crash at op %d: destination is a mix: %q", p.Op, dest)
		}
		if p.Err == nil && !bytes.Equal(dest, newBytes) {
			return fmt.Errorf("crash-free run left the old bytes in place")
		}
		// Reboot: restore the durable bytes to a real directory, run
		// the recovery sweep, and verify nothing but the destination
		// remains.
		dir := t.TempDir()
		for name, data := range p.Durable {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				return err
			}
		}
		path := filepath.Join(dir, "metrics.prom")
		if _, err := CleanStaleTmps(OS, path); err != nil {
			return err
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		if len(entries) != 1 || entries[0].Name() != "metrics.prom" {
			names := make([]string, 0, len(entries))
			for _, e := range entries {
				names = append(names, e.Name())
			}
			return fmt.Errorf("crash at op %d: recovery left %v, want only metrics.prom", p.Op, names)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, oldBytes) && !bytes.Equal(got, newBytes) {
			return fmt.Errorf("crash at op %d: recovered destination is a mix: %q", p.Op, got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCrashWriteFileAtomicFreshFile is the same exploration when no
// destination pre-exists: at every crash point recovery finds either
// nothing or the complete new file — never a partial one.
func TestCrashWriteFileAtomicFreshFile(t *testing.T) {
	payload := []byte("fresh event log\n")
	scenario := func(fs FS) error {
		return WriteFileAtomic(fs, "events.jsonl", func(w io.Writer) error {
			_, err := w.Write(payload)
			return err
		})
	}
	err := Explore(4, nil, scenario, func(p CrashPoint) error {
		dest, ok := p.Durable["events.jsonl"]
		if ok && !bytes.Equal(dest, payload) {
			return fmt.Errorf("crash at op %d: partial destination %q", p.Op, dest)
		}
		if p.Err == nil && !ok {
			return fmt.Errorf("crash-free run produced no durable destination")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
