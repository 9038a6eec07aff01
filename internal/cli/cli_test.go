package cli

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdpm/internal/faults"
)

func TestLoadWorkloadBench(t *testing.T) {
	w, err := LoadWorkload("galgel", "")
	if err != nil || w.Name() != "galgel" {
		t.Fatalf("LoadWorkload: %v", err)
	}
	if _, err := LoadWorkload("nope", ""); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := LoadWorkload("", ""); err == nil {
		t.Error("no source accepted")
	}
	if _, err := LoadWorkload("galgel", "x.sdpm"); err == nil {
		t.Error("both sources accepted")
	}
}

func TestLoadWorkloadDSL(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.sdpm")
	src := "program p\narray a[8192]\nnest n { for i = 0..8192 do cost 10 { read a[i] } }\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := LoadWorkload("", path)
	if err != nil || w.Name() != "p" {
		t.Fatalf("LoadWorkload: %v", err)
	}
	if _, err := LoadWorkload("", filepath.Join(dir, "missing.sdpm")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.sdpm")
	_ = os.WriteFile(bad, []byte("garbage"), 0o644)
	if _, err := LoadWorkload("", bad); err == nil {
		t.Error("garbage accepted")
	}
}

func TestParseSpecFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "faults.spec")
	body := "# heavy spin-up trouble\nspinup=0.4 retries=2\nbackoff=250, timeout=20000 # cascade cap\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := ExpandSpecFile("@" + path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := faults.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := faults.Config{SpinUpFailProb: 0.4, MaxRetries: 2, RetryBackoffMS: 250, SpinUpTimeoutMS: 20000}
	if c != want {
		t.Fatalf("parsed %+v, want %+v", c, want)
	}
	// Anything but "@path" passes through untouched; a missing file is
	// an error.
	if got, err := ExpandSpecFile("light"); got != "light" || err != nil {
		t.Fatalf("ExpandSpecFile(light) = %q, %v", got, err)
	}
	if _, err := ExpandSpecFile("@" + filepath.Join(t.TempDir(), "missing.spec")); err == nil {
		t.Fatal("missing spec file accepted")
	}
}

func TestApplyLayoutSpecs(t *testing.T) {
	w, _ := LoadWorkload("galgel", "")
	if err := ApplyLayoutSpecs(w, ""); err != nil {
		t.Fatal(err)
	}
	if err := ApplyLayoutSpecs(w, "g1=0:4:64, g2=4:4:64"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"g1",           // no tuple
		"g1=1:2",       // short tuple
		"g1=x:2:64",    // bad start
		"g1=0:x:64",    // bad factor
		"g1=0:2:x",     // bad unit
		"ghost=0:2:64", // unknown array
	} {
		if err := ApplyLayoutSpecs(w, bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		} else if !strings.Contains(err.Error(), "layout") && !strings.Contains(err.Error(), "array") {
			t.Errorf("spec %q: unhelpful error %v", bad, err)
		}
	}
}

// "-" and an empty path hand the writer the standard stream itself,
// so no file is created.
func TestWriteOutputDash(t *testing.T) {
	for _, path := range []string{"-", ""} {
		var std bytes.Buffer
		err := WriteOutput(path, &std, func(w io.Writer) error {
			if w != &std {
				return errors.New("writer is not the standard stream")
			}
			_, err := io.WriteString(w, "report\n")
			return err
		})
		if err != nil {
			t.Fatalf("%q: %v", path, err)
		}
		if std.String() != "report\n" {
			t.Fatalf("%q: std got %q", path, std.String())
		}
	}
	if _, err := os.Lstat("-"); !errors.Is(err, os.ErrNotExist) {
		os.Remove("-")
		t.Fatalf("a file named - exists: %v", err)
	}
}

// A file output is replaced atomically: a failing writer leaves the
// old bytes and no tmp sibling, and a good one lands its bytes.
func TestWriteOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteOutput(path, io.Discard, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want the writer's", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("failed write changed the file to %q", got)
	}
	if left, _ := filepath.Glob(path + ".tmp*"); len(left) != 0 {
		t.Fatalf("tmp files left behind: %v", left)
	}
	err = WriteOutput(path, io.Discard, func(w io.Writer) error {
		_, err := io.WriteString(w, "new")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("file holds %q, want %q", got, "new")
	}
}
