package fsx

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"sdpm/internal/faults"
)

// Decision streams for the seeded failure draws — the same
// splitmix64 construction internal/faults uses, so a (seed, op index)
// pair reproduces the exact failure pattern on any platform.
const (
	streamWriteFail uint64 = 0xa0761d6478bd642f
	streamSyncFail  uint64 = 0xe7037ed1a0b428db
)

// memNode is one file's content: the volatile bytes a running process
// sees (the "page cache") and the durable bytes a power loss would
// leave on the platter. Handles reference nodes, not names, so a file
// renamed while open keeps working — exactly like an inode.
type memNode struct {
	data    []byte // volatile content
	durable []byte // content as of the last successful Sync
	synced  bool   // has this node ever been fsynced
}

// Faulty is a deterministic in-memory filesystem with seeded fault
// injection and a shadow durable-state model:
//
//   - Writes land in the volatile view only. Sync copies a file's
//     volatile bytes to its durable shadow — the fsync barrier.
//   - A file's directory entry becomes durable when the file is
//     fsynced under that name (ext4-style) or when its directory is
//     SyncDir'd. Renames and removes are durable only after SyncDir —
//     the pessimistic reading of POSIX, so recovery code proven
//     correct here is correct on any real filesystem.
//   - CrashAt(n) simulates power loss at operation n: that operation
//     and every later one fail with ErrCrashed, and DurableFiles
//     returns exactly the bytes a real crash could leave behind.
//   - FailAt / ShortWriteAt / FailWrites / FailSyncs inject ENOSPC,
//     EIO, short writes, and fsync failures — one-shot on the Nth
//     operation or seeded per-operation probabilities.
//
// Mutating operations (open/create, write, truncate, sync, rename,
// remove, dir-sync) each consume one operation index; reads are free
// (a crash between two reads is indistinguishable from a crash at the
// next mutation). All methods are safe for concurrent use, though
// crash-point exploration is only meaningful for single-goroutine
// scenarios (the operation order must be deterministic).
type Faulty struct {
	mu   sync.Mutex
	seed int64

	ops     int // operation index counter
	crashAt int // -1 = never
	crashed bool

	failAt  map[int]error // op index -> clean failure
	shortAt map[int]error // write op index -> half write, then failure

	writeFailProb float64
	writeFailErr  error
	syncFailProb  float64
	syncFailErr   error

	volatile   map[string]*memNode // live namespace
	durableDir map[string]*memNode // namespace as a power loss would leave it
	locks      map[*memNode]*memFile
	tempSeq    int
}

// NewFaulty returns a fault-free in-memory filesystem; arm faults
// with CrashAt, FailAt, ShortWriteAt, FailWrites, or FailSyncs. The
// seed feeds the probabilistic failure draws.
func NewFaulty(seed int64) *Faulty {
	return &Faulty{
		seed:       seed,
		crashAt:    -1,
		failAt:     map[int]error{},
		shortAt:    map[int]error{},
		volatile:   map[string]*memNode{},
		durableDir: map[string]*memNode{},
		locks:      map[*memNode]*memFile{},
	}
}

// CrashAt arms a simulated power loss at operation index op (0-based
// over the mutating operations); -1 disarms.
func (f *Faulty) CrashAt(op int) *Faulty {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt = op
	return f
}

// FailAt makes the op-th operation fail cleanly with err (no bytes
// written); later operations proceed normally.
func (f *Faulty) FailAt(op int, err error) *Faulty {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAt[op] = err
	return f
}

// ShortWriteAt makes the op-th operation, if it is a write, write
// only half its bytes and then return err — the torn-record case.
func (f *Faulty) ShortWriteAt(op int, err error) *Faulty {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shortAt[op] = err
	return f
}

// FailWrites makes each write fail cleanly with probability prob
// (seeded per operation index).
func (f *Faulty) FailWrites(prob float64, err error) *Faulty {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeFailProb, f.writeFailErr = prob, err
	return f
}

// FailSyncs makes each fsync fail with probability prob (seeded per
// operation index). After a failed fsync the durable shadow is left
// unchanged — the kernel's page-cache state after a failed fsync is
// undefined, so callers must treat the data as lost.
func (f *Faulty) FailSyncs(prob float64, err error) *Faulty {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncFailProb, f.syncFailErr = prob, err
	return f
}

// SetFile installs a file as both volatile and durable — pre-existing
// state for a scenario, consuming no operation.
func (f *Faulty) SetFile(path string, data []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	path = filepath.Clean(path)
	n := &memNode{
		data:    append([]byte(nil), data...),
		durable: append([]byte(nil), data...),
		synced:  true,
	}
	f.volatile[path] = n
	f.durableDir[path] = n
}

// OpCount reports how many mutating operations have executed — the
// crash-point space for Explore.
func (f *Faulty) OpCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the simulated power loss has happened.
func (f *Faulty) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// DurableFiles returns the bytes a power loss right now would leave
// on disk: every durable directory entry mapped to its node's last
// fsynced content (a created-but-never-synced entry maps to empty).
func (f *Faulty) DurableFiles() map[string][]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string][]byte, len(f.durableDir))
	for name, n := range f.durableDir {
		out[name] = append([]byte(nil), n.durable...)
	}
	return out
}

// VolatileFiles returns the live (process-visible) view, sorted names
// to content.
func (f *Faulty) VolatileFiles() map[string][]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string][]byte, len(f.volatile))
	for name, n := range f.volatile {
		out[name] = append([]byte(nil), n.data...)
	}
	return out
}

// opKind classifies an operation for the injection rules.
type opKind int

const (
	opOpen opKind = iota
	opWrite
	opTruncate
	opSync
	opRename
	opRemove
	opSyncDir
)

// step consumes one operation index and resolves the fault rules for
// it. Callers hold f.mu. short reports that the operation should
// write half its payload before failing with fault.
func (f *Faulty) step(kind opKind) (fault error, short bool) {
	if f.crashed {
		return ErrCrashed, false
	}
	idx := f.ops
	f.ops++
	if f.crashAt >= 0 && idx >= f.crashAt {
		f.crashed = true
		return ErrCrashed, false
	}
	if err, ok := f.failAt[idx]; ok {
		return err, false
	}
	if err, ok := f.shortAt[idx]; ok && kind == opWrite {
		return err, true
	}
	switch kind {
	case opWrite:
		if f.writeFailProb > 0 && faults.Uniform(f.seed, streamWriteFail, uint64(idx)) < f.writeFailProb {
			return f.writeFailErr, false
		}
	case opSync:
		if f.syncFailProb > 0 && faults.Uniform(f.seed, streamSyncFail, uint64(idx)) < f.syncFailProb {
			return f.syncFailErr, false
		}
	}
	return nil, false
}

func (f *Faulty) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = filepath.Clean(name)
	if fault, _ := f.step(opOpen); fault != nil {
		return nil, &os.PathError{Op: "open", Path: name, Err: fault}
	}
	n, ok := f.volatile[name]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
		}
		n = &memNode{}
		f.volatile[name] = n
	} else if flag&os.O_TRUNC != 0 {
		n.data = nil
	}
	return &memFile{fs: f, node: n, name: name}, nil
}

func (f *Faulty) CreateTemp(dir, pattern string) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if fault, _ := f.step(opOpen); fault != nil {
		return nil, &os.PathError{Op: "createtemp", Path: pattern, Err: fault}
	}
	prefix, suffix := splitPattern(pattern)
	var name string
	for {
		name = filepath.Join(dir, prefix+strconv.Itoa(f.tempSeq)+suffix)
		f.tempSeq++
		if _, exists := f.volatile[name]; !exists {
			break
		}
	}
	n := &memNode{}
	f.volatile[name] = n
	return &memFile{fs: f, node: n, name: name}, nil
}

func (f *Faulty) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = filepath.Clean(name)
	if f.crashed {
		return nil, &os.PathError{Op: "read", Path: name, Err: ErrCrashed}
	}
	n, ok := f.volatile[name]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return append([]byte(nil), n.data...), nil
}

func (f *Faulty) ReadDir(dir string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, &os.PathError{Op: "readdir", Path: dir, Err: ErrCrashed}
	}
	dir = filepath.Clean(dir)
	var names []string
	for name := range f.volatile {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (f *Faulty) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	if fault, _ := f.step(opRename); fault != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: fault}
	}
	n, ok := f.volatile[oldpath]
	if !ok {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: os.ErrNotExist}
	}
	delete(f.volatile, oldpath)
	f.volatile[newpath] = n
	return nil
}

func (f *Faulty) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = filepath.Clean(name)
	if fault, _ := f.step(opRemove); fault != nil {
		return &os.PathError{Op: "remove", Path: name, Err: fault}
	}
	if _, ok := f.volatile[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(f.volatile, name)
	return nil
}

// SyncDir makes the directory's entries durable: creates, renames,
// and removes in dir now survive a crash. Content durability is
// separate — it still requires each file's own Sync.
func (f *Faulty) SyncDir(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	dir = filepath.Clean(dir)
	if fault, _ := f.step(opSyncDir); fault != nil {
		return &os.PathError{Op: "syncdir", Path: dir, Err: fault}
	}
	for name, n := range f.volatile {
		if filepath.Dir(name) == dir {
			f.durableDir[name] = n
		}
	}
	for name := range f.durableDir {
		if filepath.Dir(name) == dir {
			if _, live := f.volatile[name]; !live {
				delete(f.durableDir, name)
			}
		}
	}
	return nil
}

func (f *Faulty) Lock(file File) error {
	mf, ok := file.(*memFile)
	if !ok {
		return fmt.Errorf("fsx: Lock needs a Faulty file, got %T", file)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if holder, held := f.locks[mf.node]; held && holder != mf && !holder.closed {
		return ErrLockHeld
	}
	f.locks[mf.node] = mf
	return nil
}

// memFile is an open handle on a memNode.
type memFile struct {
	fs     *Faulty
	node   *memNode
	name   string
	off    int64
	closed bool
}

func (m *memFile) Name() string { return m.name }

func (m *memFile) Read(p []byte) (int, error) {
	m.fs.mu.Lock()
	defer m.fs.mu.Unlock()
	if m.closed {
		return 0, os.ErrClosed
	}
	if m.fs.crashed {
		return 0, ErrCrashed
	}
	if m.off >= int64(len(m.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.node.data[m.off:])
	m.off += int64(n)
	return n, nil
}

func (m *memFile) Write(p []byte) (int, error) {
	m.fs.mu.Lock()
	defer m.fs.mu.Unlock()
	if m.closed {
		return 0, os.ErrClosed
	}
	fault, short := m.fs.step(opWrite)
	if fault != nil && !short {
		return 0, &os.PathError{Op: "write", Path: m.name, Err: fault}
	}
	data := p
	if short {
		data = p[:len(p)/2]
	}
	m.writeAt(data)
	if short {
		return len(data), &os.PathError{Op: "write", Path: m.name, Err: fault}
	}
	return len(p), nil
}

// writeAt lands bytes at the handle's offset, extending the volatile
// content as needed. Callers hold fs.mu.
func (m *memFile) writeAt(p []byte) {
	end := m.off + int64(len(p))
	if end > int64(len(m.node.data)) {
		grown := make([]byte, end)
		copy(grown, m.node.data)
		m.node.data = grown
	}
	copy(m.node.data[m.off:], p)
	m.off = end
}

func (m *memFile) Seek(offset int64, whence int) (int64, error) {
	m.fs.mu.Lock()
	defer m.fs.mu.Unlock()
	if m.closed {
		return 0, os.ErrClosed
	}
	switch whence {
	case io.SeekStart:
		m.off = offset
	case io.SeekCurrent:
		m.off += offset
	case io.SeekEnd:
		m.off = int64(len(m.node.data)) + offset
	default:
		return 0, fmt.Errorf("fsx: bad whence %d", whence)
	}
	if m.off < 0 {
		return 0, fmt.Errorf("fsx: negative seek offset")
	}
	return m.off, nil
}

func (m *memFile) Truncate(size int64) error {
	m.fs.mu.Lock()
	defer m.fs.mu.Unlock()
	if m.closed {
		return os.ErrClosed
	}
	if fault, _ := m.fs.step(opTruncate); fault != nil {
		return &os.PathError{Op: "truncate", Path: m.name, Err: fault}
	}
	if size < 0 {
		return &os.PathError{Op: "truncate", Path: m.name, Err: fmt.Errorf("negative size")}
	}
	if size <= int64(len(m.node.data)) {
		m.node.data = m.node.data[:size]
	} else {
		grown := make([]byte, size)
		copy(grown, m.node.data)
		m.node.data = grown
	}
	return nil
}

// Sync is the durability barrier: the node's volatile bytes become
// its durable shadow, and — when the file still lives under the name
// it was opened with — the directory entry becomes durable too
// (fsync of a file persists the file itself; ext4-style, it also
// persists a newly created entry).
func (m *memFile) Sync() error {
	m.fs.mu.Lock()
	defer m.fs.mu.Unlock()
	if m.closed {
		return os.ErrClosed
	}
	if fault, _ := m.fs.step(opSync); fault != nil {
		return &os.PathError{Op: "sync", Path: m.name, Err: fault}
	}
	m.node.durable = append([]byte(nil), m.node.data...)
	m.node.synced = true
	if m.fs.volatile[m.name] == m.node {
		m.fs.durableDir[m.name] = m.node
	}
	return nil
}

func (m *memFile) Close() error {
	m.fs.mu.Lock()
	defer m.fs.mu.Unlock()
	if m.closed {
		return os.ErrClosed
	}
	m.closed = true
	if holder, held := m.fs.locks[m.node]; held && holder == m {
		delete(m.fs.locks, m.node)
	}
	return nil
}
