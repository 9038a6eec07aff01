// Package journal provides a crash-safe, append-only result journal
// for long experiment sweeps. Each completed cell is one JSONL record
// protected by a CRC32-C checksum and fsynced before the cell's value
// is considered durable, so a killed sweep can be resumed with
// -resume and recomputes only the cells that never made it to disk.
//
// On-disk format, one record per line:
//
//	<crc32c as 8 lowercase hex digits> <json>\n
//
// where <json> is {"k":"<cell key>","v":[<float64 values>]} and the
// checksum covers exactly the JSON bytes (not the trailing newline).
// The format is self-validating: a torn tail from a crash (partial
// line, missing newline, or a record whose checksum does not match)
// is detected on open and truncated away; corruption in the middle of
// the file is reported as an error rather than silently skipped.
//
// Values are float64 and round-trip through JSON bit-exactly
// (encoding/json emits the shortest representation that parses back
// to the same float), which is what makes a resumed run byte-identical
// to a cold one.
//
// All filesystem access goes through internal/fsx, so every failure
// path — ENOSPC, EIO, short writes, failed fsyncs, and a crash at any
// operation — is exercised deterministically by the crash explorer
// (fsx.Explore); see docs/robustness.md ("Crash consistency").
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
	"sync"

	"sdpm/internal/fsx"
)

// castagnoli is the CRC32-C polynomial table; Castagnoli has better
// error-detection properties than IEEE and hardware support on most
// CPUs.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one journaled cell result.
type Record struct {
	Key  string    `json:"k"`
	Vals []float64 `json:"v"`
}

// DecodeError describes a record that failed validation.
type DecodeError struct {
	Reason string
}

func (e *DecodeError) Error() string { return "journal: " + e.Reason }

// CorruptError reports corruption that is not a torn tail: a record
// before the last one failed validation, which truncation cannot
// explain.
type CorruptError struct {
	Path string
	Line int // 1-based line number of the bad record
	Err  error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("journal: %s: corrupt record at line %d: %v", e.Path, e.Line, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// LockError reports that the journal at Path is already open for
// writing — by another process, or by another Journal value in this
// one. Two concurrent writers would interleave appends and corrupt
// the file, so Create and Open fail fast with this typed error
// instead; a resume attempted while a finalize is still in flight
// fails the same way. The lock is advisory (flock) and the kernel
// drops it when the holder's descriptor closes, so a crashed writer
// never wedges the journal.
type LockError struct {
	Path string
}

func (e *LockError) Error() string {
	return fmt.Sprintf("journal: %s: already locked by another writer", e.Path)
}

// IOError reports a failed journal write or fsync: the record the
// caller tried to append did not become durable. Offset is the byte
// offset in the journal file where the failure happened; Op is
// "write" or "sync". After a failure that may have left torn bytes in
// the file (a partial write, or any fsync failure — the page cache is
// undefined after a failed fsync), the journal is poisoned: later
// Appends fail fast with an error wrapping the original IOError
// instead of writing after a torn record. A clean write failure that
// landed zero bytes leaves the journal usable, so callers may retry.
type IOError struct {
	Path   string
	Op     string // "write" or "sync"
	Offset int64  // byte offset in the journal where the failure hit
	Err    error
}

func (e *IOError) Error() string {
	return fmt.Sprintf("journal: %s: %s failed at offset %d: %v", e.Path, e.Op, e.Offset, e.Err)
}

func (e *IOError) Unwrap() error { return e.Err }

// EncodeLine renders a record in the on-disk line format, including
// the trailing newline. It fails if the values cannot round-trip
// through JSON (NaN or infinity).
func EncodeLine(r Record) ([]byte, error) {
	for _, v := range r.Vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, &DecodeError{Reason: "non-finite value cannot be journaled"}
		}
	}
	js, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 0, 8+1+len(js)+1)
	line = fmt.Appendf(line, "%08x ", crc32.Checksum(js, castagnoli))
	line = append(line, js...)
	line = append(line, '\n')
	return line, nil
}

// DecodeLine parses one line (without the trailing newline). A record
// whose checksum does not cover its JSON payload, or whose payload is
// not the canonical record shape, is rejected — never mis-parsed.
func DecodeLine(line []byte) (Record, error) {
	if len(line) < 10 || line[8] != ' ' {
		return Record{}, &DecodeError{Reason: "short or malformed record header"}
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &want); err != nil {
		return Record{}, &DecodeError{Reason: "bad checksum field: " + err.Error()}
	}
	js := line[9:]
	if got := crc32.Checksum(js, castagnoli); got != want {
		return Record{}, &DecodeError{Reason: fmt.Sprintf("checksum mismatch: header %08x, payload %08x", want, got)}
	}
	var r Record
	dec := json.NewDecoder(bytes.NewReader(js))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return Record{}, &DecodeError{Reason: "bad payload: " + err.Error()}
	}
	if dec.More() {
		return Record{}, &DecodeError{Reason: "trailing data after record payload"}
	}
	if r.Key == "" {
		return Record{}, &DecodeError{Reason: "record has empty key"}
	}
	return r, nil
}

// Journal is an open result journal. All methods are safe for
// concurrent use; Append serializes writers.
type Journal struct {
	mu   sync.Mutex
	fs   fsx.FS
	path string
	f    fsx.File
	vals map[string][]float64

	size     int64    // current end-of-file offset (all valid records)
	poisoned *IOError // first torn-write/sync failure; Appends fail fast

	recovered int // records kept from a pre-existing file
	truncated int // bytes of torn tail discarded on open
}

// Create opens a fresh journal at path, truncating any existing
// file. It fails with a *LockError if another writer already holds
// the journal open.
func Create(path string) (*Journal, error) { return CreateFS(fsx.OS, path) }

// CreateFS is Create over an explicit filesystem — fsx.OS in
// production, a fault-injecting fsx.Faulty under test.
func CreateFS(fs fsx.FS, path string) (*Journal, error) {
	return open(fs, path, func(j *Journal) error { return j.f.Truncate(0) })
}

// Open opens the journal at path for resumption, creating it if it
// does not exist. Every valid record is loaded (the last write for a
// key wins); a torn tail left by a crash is truncated away. Invalid
// records that are *not* the tail mean the file was corrupted some
// other way, and Open fails with a *CorruptError. Like Create, Open
// fails with a *LockError while another writer holds the journal.
func Open(path string) (*Journal, error) { return OpenFS(fsx.OS, path) }

// OpenFS is Open over an explicit filesystem.
func OpenFS(fs fsx.FS, path string) (*Journal, error) {
	return open(fs, path, (*Journal).recover)
}

// open is the prologue Create and Open share: open path without
// truncating it, take the writer lock (opening with O_TRUNC would
// destroy a live writer's records before the lock check could
// refuse), sweep the tmp siblings a crashed finalize left, then run
// init on the locked journal. The sweep is safe under the lock, since
// no live writer can be mid-finalize on this path while we hold it,
// and best-effort: a tmp it misses only takes space until the next
// open.
func open(fs fsx.FS, path string, init func(*Journal) error) (*Journal, error) {
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := fs.Lock(f); err != nil {
		f.Close()
		if errors.Is(err, fsx.ErrLockHeld) {
			return nil, &LockError{Path: path}
		}
		return nil, err
	}
	fsx.CleanStaleTmps(fs, path)
	j := &Journal{fs: fs, path: path, f: f, vals: make(map[string][]float64)}
	if err := init(j); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// recover scans the file, loads valid records, and truncates a torn
// tail. A record is "the tail" only if nothing valid follows it. A
// final line without a trailing newline is always treated as torn,
// even if its bytes happen to validate, because Append writes record
// and newline together — a missing newline proves a partial write.
func (j *Journal) recover() error {
	data, err := j.fs.ReadFile(j.path)
	if err != nil {
		return err
	}
	var (
		validEnd int64 // file offset just past the last valid record
		offset   int64
		badLine  int   // line number of first invalid record, 0 = none
		badErr   error // its decode error
		line     int
	)
	for len(data) > 0 {
		line++
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			// Torn tail: no newline means Append never finished.
			break
		}
		raw := data[:nl]
		data = data[nl+1:]
		offset += int64(nl) + 1
		rec, err := DecodeLine(raw)
		if err != nil {
			if badLine == 0 {
				badLine, badErr = line, err
			}
			continue
		}
		if badLine != 0 {
			// A valid record after an invalid one: mid-file corruption.
			return &CorruptError{Path: j.path, Line: badLine, Err: badErr}
		}
		j.vals[rec.Key] = rec.Vals
		validEnd = offset
	}
	size, err := j.f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if size > validEnd {
		// Torn tail (partial last line, or trailing records that fail
		// validation): cut it off so Append starts on a clean line.
		if err := j.f.Truncate(validEnd); err != nil {
			return err
		}
		if _, err := j.f.Seek(validEnd, io.SeekStart); err != nil {
			return err
		}
		j.truncated = int(size - validEnd)
	}
	j.size = validEnd
	j.recovered = len(j.vals)
	return nil
}

// Append journals one cell result durably: the record is written and
// fsynced before Append returns, so a crash after Append never loses
// the cell. A failure surfaces as a typed *IOError carrying the op
// (write vs sync) and byte offset; a failure that may have torn the
// file poisons the journal — see IOError.
func (j *Journal) Append(key string, vals []float64) error {
	line, err := EncodeLine(Record{Key: key, Vals: vals})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("journal: closed")
	}
	if j.poisoned != nil {
		return fmt.Errorf("journal: poisoned by earlier failure, refusing to write after a possibly torn record: %w", j.poisoned)
	}
	n, err := j.f.Write(line)
	if err != nil {
		ioe := &IOError{Path: j.path, Op: "write", Offset: j.size + int64(n), Err: err}
		if n > 0 {
			// Bytes may be torn mid-record; writing more would bury the
			// damage where recovery treats it as mid-file corruption.
			j.poisoned = ioe
		}
		return ioe
	}
	if err := j.f.Sync(); err != nil {
		// After a failed fsync the page cache is undefined (the kernel
		// may have dropped the dirty pages): poison unconditionally.
		ioe := &IOError{Path: j.path, Op: "sync", Offset: j.size, Err: err}
		j.poisoned = ioe
		return ioe
	}
	j.size += int64(len(line))
	j.vals[key] = append([]float64(nil), vals...)
	return nil
}

// Probe verifies the journal is writable without adding a record: it
// writes a single newline at end of file, fsyncs, truncates the byte
// back off, and fsyncs again. A crash mid-probe leaves at most a
// blank tail line, which recovery already discards as torn. Callers
// (the serving layer's degraded-mode reprobe) use this to prove a
// reopened journal is genuinely healthy before trusting it with
// durability again.
func (j *Journal) Probe() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("journal: closed")
	}
	if j.poisoned != nil {
		return fmt.Errorf("journal: poisoned by earlier failure: %w", j.poisoned)
	}
	if _, err := j.f.Write([]byte("\n")); err != nil {
		return &IOError{Path: j.path, Op: "write", Offset: j.size, Err: err}
	}
	if err := j.f.Sync(); err != nil {
		return &IOError{Path: j.path, Op: "sync", Offset: j.size, Err: err}
	}
	if err := j.f.Truncate(j.size); err != nil {
		return err
	}
	if _, err := j.f.Seek(j.size, io.SeekStart); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return &IOError{Path: j.path, Op: "sync", Offset: j.size, Err: err}
	}
	return nil
}

// Lookup returns the journaled values for key, if any.
func (j *Journal) Lookup(key string) ([]float64, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	v, ok := j.vals[key]
	return v, ok
}

// Len reports the number of distinct journaled cells.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.vals)
}

// Recovered reports how many records were loaded from a pre-existing
// file and how many bytes of torn tail were discarded.
func (j *Journal) Recovered() (records, truncatedBytes int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recovered, j.truncated
}

// Poisoned returns the failure that poisoned the journal, or nil.
func (j *Journal) Poisoned() *IOError {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.poisoned
}

// Close releases the file without compacting.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Finalize compacts the journal after a fully successful run: records
// are rewritten (deduplicated, in sorted key order) through
// fsx.WriteFileAtomic, which fsyncs a tmp sibling, renames it over the
// journal and syncs the directory, so the finalized file is either
// the complete old journal or the complete new one — never a mix. The
// journal is closed afterwards. Finalize is safe even on a poisoned
// journal: it writes a fresh file from the in-memory records and only
// replaces the journal after a successful fsync, so a failure here
// never damages the existing file.
func (j *Journal) Finalize() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("journal: closed")
	}
	keys := make([]string, 0, len(j.vals))
	for k := range j.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	err := fsx.WriteFileAtomic(j.fs, j.path, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		for _, k := range keys {
			line, err := EncodeLine(Record{Key: k, Vals: j.vals[k]})
			if err != nil {
				return err
			}
			// A failed write sticks in bw; Flush reports it.
			bw.Write(line)
		}
		return bw.Flush()
	})
	if err != nil {
		return err
	}
	err = j.f.Close()
	j.f = nil
	return err
}

// Keys returns the journaled cell keys in sorted order.
func (j *Journal) Keys() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	keys := make([]string, 0, len(j.vals))
	for k := range j.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
