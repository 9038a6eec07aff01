package journal

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Record{
		{Key: "a", Vals: nil},
		{Key: "table2|swim", Vals: []float64{1, 2.5, -3e-9}},
		{Key: "k|with|pipes and spaces", Vals: []float64{math.MaxFloat64, math.SmallestNonzeroFloat64}},
		{Key: "unicode-ключ", Vals: []float64{0.1, 0.2, 0.30000000000000004}},
	}
	for _, want := range cases {
		line, err := EncodeLine(want)
		if err != nil {
			t.Fatalf("EncodeLine(%v): %v", want, err)
		}
		if line[len(line)-1] != '\n' {
			t.Fatalf("encoded line missing newline: %q", line)
		}
		got, err := DecodeLine(line[:len(line)-1])
		if err != nil {
			t.Fatalf("DecodeLine(%q): %v", line, err)
		}
		if got.Key != want.Key || len(got.Vals) != len(want.Vals) {
			t.Fatalf("round trip: got %v want %v", got, want)
		}
		for i := range want.Vals {
			if got.Vals[i] != want.Vals[i] {
				t.Fatalf("value %d not bit-exact: got %v want %v", i, got.Vals[i], want.Vals[i])
			}
		}
	}
}

func TestEncodeRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := EncodeLine(Record{Key: "k", Vals: []float64{v}}); err == nil {
			t.Fatalf("EncodeLine accepted non-finite %v", v)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	line, err := EncodeLine(Record{Key: "k", Vals: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	line = line[:len(line)-1] // strip newline
	bad := [][]byte{
		nil,
		[]byte(""),
		[]byte("short"),
		line[:len(line)-1],               // truncated payload
		line[1:],                         // truncated header
		[]byte("zzzzzzzz " + "{}"),       // non-hex checksum
		[]byte("00000000 {\"k\":\"x\"}"), // wrong checksum
	}
	flip := append([]byte(nil), line...)
	flip[len(flip)-3] ^= 0x40 // bit flip inside the payload
	bad = append(bad, flip)
	for _, b := range bad {
		if _, err := DecodeLine(b); err == nil {
			t.Fatalf("DecodeLine accepted corrupt input %q", b)
		}
	}
}

func TestCreateAppendOpenResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("a", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("b", []float64{3}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("a", []float64{9, 9}); err != nil { // rewrite: last wins
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	v, ok := j2.Lookup("a")
	if !ok || len(v) != 2 || v[0] != 9 || v[1] != 9 {
		t.Fatalf("Lookup(a) = %v,%v; want [9 9]", v, ok)
	}
	if _, ok := j2.Lookup("missing"); ok {
		t.Fatal("Lookup(missing) returned ok")
	}
	rec, trunc := j2.Recovered()
	if rec != 2 || trunc != 0 {
		t.Fatalf("Recovered = %d,%d; want 2,0", rec, trunc)
	}
}

func TestOpenTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []string{"a", "b", "c"} {
		if err := j.Append(k, []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Chop N bytes off the end — every cut length that leaves the
	// "c" record incomplete must resume with exactly {a, b}.
	lines := strings.SplitAfter(string(whole), "\n")
	lastLen := len(lines[2])
	for cut := 1; cut < lastLen; cut++ {
		torn := whole[:len(whole)-cut]
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		j2, err := Open(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := j2.Len(); got != 2 {
			t.Fatalf("cut %d: Len = %d, want 2", cut, got)
		}
		rec, trunc := j2.Recovered()
		if rec != 2 || trunc != lastLen-cut {
			t.Fatalf("cut %d: Recovered = %d,%d; want 2,%d", cut, rec, trunc, lastLen-cut)
		}
		// The torn bytes must be gone so a fresh Append lands cleanly.
		if err := j2.Append("d", []float64{4}); err != nil {
			t.Fatal(err)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		j3, err := Open(path)
		if err != nil {
			t.Fatalf("cut %d reopen: %v", cut, err)
		}
		if got := j3.Len(); got != 3 {
			t.Fatalf("cut %d reopen: Len = %d, want 3 (a, b, d)", cut, got)
		}
		j3.Close()
	}
}

func TestOpenRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []string{"a", "b", "c"} {
		if err := j.Append(k, []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[12] ^= 0xff // flip a bit inside the first record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Open = %v, want *CorruptError", err)
	}
	if ce.Line != 1 {
		t.Fatalf("CorruptError.Line = %d, want 1", ce.Line)
	}
}

func TestFinalizeCompactsAndSorts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append("b", []float64{2})
	j.Append("a", []float64{1})
	j.Append("b", []float64{20}) // duplicate: only the last survives
	if err := j.Finalize(); err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(path + ".tmp*"); len(left) != 0 {
		t.Fatalf("tmp files left behind: %v", left)
	}
	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Keys(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Keys = %v, want [a b]", got)
	}
	v, _ := j2.Lookup("b")
	if len(v) != 1 || v[0] != 20 {
		t.Fatalf("Lookup(b) = %v, want [20]", v)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 2 {
		t.Fatalf("finalized file has %d records, want 2", n)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := j.Append("a", []float64{1}); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}

func FuzzJournalDecode(f *testing.F) {
	for _, rec := range []Record{
		{Key: "table2|swim|cfg", Vals: []float64{12.5, 3300}},
		{Key: "x", Vals: nil},
		{Key: "neg", Vals: []float64{-1e-300, 7}},
	} {
		line, err := EncodeLine(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line[:len(line)-1])
	}
	f.Add([]byte("00000000 {}"))
	f.Add([]byte("deadbeef {\"k\":\"a\",\"v\":[1]}"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, line []byte) {
		rec, err := DecodeLine(line)
		if err != nil {
			return // rejected input is always fine
		}
		// Accepted input must re-encode to a line that decodes to the
		// same record: no mis-parse can survive the round trip.
		if rec.Key == "" {
			t.Fatal("accepted record with empty key")
		}
		out, err := EncodeLine(rec)
		if err != nil {
			t.Fatalf("accepted record failed to re-encode: %v", err)
		}
		rec2, err := DecodeLine(out[:len(out)-1])
		if err != nil {
			t.Fatalf("re-encoded line failed to decode: %v", err)
		}
		if rec2.Key != rec.Key || len(rec2.Vals) != len(rec.Vals) {
			t.Fatalf("round trip mismatch: %v vs %v", rec, rec2)
		}
		for i := range rec.Vals {
			v1, v2 := rec.Vals[i], rec2.Vals[i]
			if v1 != v2 && !(math.IsNaN(v1) && math.IsNaN(v2)) {
				t.Fatalf("value %d drifted: %v vs %v", i, v1, v2)
			}
		}
	})
}

// Create and Open sweep the tmp siblings a crashed finalize leaves
// next to the journal: the unique "<path>.tmp.*" names of
// fsx.WriteFileAtomic and the fixed "<path>.tmp" of older finalizes.
func TestOpenSweepsStaleTmps(t *testing.T) {
	for name, openJournal := range map[string]func(string) (*Journal, error){"Create": Create, "Open": Open} {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		for _, tmp := range []string{path + ".tmp.1234", path + ".tmp"} {
			if err := os.WriteFile(tmp, []byte("stale"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		j, err := openJournal(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		j.Close()
		if left, _ := filepath.Glob(path + ".tmp*"); len(left) != 0 {
			t.Errorf("%s left stale tmps: %v", name, left)
		}
	}
}

// A finalized journal keeps the mode Create gave the file.
func TestFinalizeKeepsMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	created, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("a", []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Finalize(); err != nil {
		t.Fatal(err)
	}
	finalized, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if finalized.Mode() != created.Mode() {
		t.Fatalf("finalized mode = %v, want %v as created", finalized.Mode(), created.Mode())
	}
}
