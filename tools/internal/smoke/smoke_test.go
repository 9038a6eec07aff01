package smoke

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sdpm/internal/journal"
)

func TestScanAddr(t *testing.T) {
	log := "level=INFO msg=\"journal opened\"\n" +
		"level=INFO msg=\"dpmd listening\" addr=127.0.0.1:43121 inflight=0\n" +
		"level=INFO msg=later\n"
	addr, err := scanAddr(strings.NewReader(log), 5*time.Second)
	if err != nil || addr != "127.0.0.1:43121" {
		t.Fatalf("scanAddr = %q, %v", addr, err)
	}
	if _, err := scanAddr(strings.NewReader("level=INFO msg=booting\n"), 50*time.Millisecond); err == nil {
		t.Fatal("scanAddr found an address in a log without one")
	}
}

func TestValidateJournal(t *testing.T) {
	line := func(key string) string {
		b, err := journal.EncodeLine(journal.Record{Key: key, Vals: []float64{1.5}})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	dir := t.TempDir()
	for name, tc := range map[string]struct {
		text  string
		cells int
		err   string
	}{
		"two cells": {text: line("a") + line("b"), cells: 2},
		"duplicate": {text: line("a") + line("a"), err: "duplicate cell"},
		"torn":      {text: line("a") + `0000 {"k":`, err: "invalid"},
		"missing":   {err: "not flushed"},
	} {
		path := filepath.Join(dir, name)
		if tc.text != "" {
			if err := os.WriteFile(path, []byte(tc.text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		cells, err := ValidateJournal(path)
		if tc.err == "" && (err != nil || cells != tc.cells) {
			t.Errorf("%s: ValidateJournal = %d, %v; want %d cells", name, cells, err, tc.cells)
		}
		if tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
			t.Errorf("%s: ValidateJournal error %v, want one containing %q", name, err, tc.err)
		}
	}
}
