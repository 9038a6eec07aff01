// Package fsx abstracts the small slice of the filesystem the
// persistence layer depends on — open/create/write/sync/rename/
// remove/read plus directory sync and advisory locking — behind an
// interface with two implementations:
//
//   - OS, a zero-cost passthrough over package os (the production
//     path, byte-identical to calling os directly), and
//   - Faulty, a deterministic seeded in-memory fault injector that
//     can return ENOSPC/EIO, short writes, and fsync failures on the
//     Nth operation, and that maintains a shadow "durable state"
//     model honoring fsync barriers: a simulated crash at any
//     operation yields exactly the bytes a real power loss could
//     leave on disk.
//
// Every file the program persists goes through this package: the
// journal's append-fsync records (internal/journal), and
// WriteFileAtomic's tmp+fsync+rename+dir-sync replace, which writes
// the journal's finalized file and every tool output file (dpmc -o,
// dpmsim's and dpmexp's -metrics-out and -events-out, dpmsim's
// -trace-out). CleanStaleTmps sweeps the tmp siblings a crash leaves.
// That durability rests on os.* calls whose failure paths are
// otherwise untestable; fsx makes every one of those paths — and
// every crash point between them — enumerable. The crash explorer
// (Explore) replays a scenario once per operation index, crashing at
// each, and hands the caller the exact durable bytes to run recovery
// against.
//
// See docs/robustness.md ("Crash consistency") for the fault model,
// the recovery invariants, and how the explorer drives them.
package fsx

import (
	"errors"
	"io"
	"os"
)

// File is the open-file surface the persistence layer uses.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Sync flushes the file's bytes to stable storage (fsync). On the
	// fault injector this is the durability barrier: only synced bytes
	// survive a simulated crash.
	Sync() error
	// Truncate changes the file's size (used to cut a torn tail).
	Truncate(size int64) error
	// Name reports the name the file was opened under.
	Name() string
}

// FS is the filesystem interface. All paths are interpreted like
// package os does; implementations must be safe for concurrent use.
type FS interface {
	// OpenFile opens with os-style flags (O_RDWR, O_CREATE, O_TRUNC...).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// CreateTemp creates a new uniquely-named file in dir, with the
	// final path derived from pattern exactly as os.CreateTemp does
	// (the last "*" replaced by a unique string). The file is opened
	// for reading and writing with mode 0644 less the umask.
	CreateTemp(dir, pattern string) (File, error)
	// ReadFile reads the whole file (the volatile view: what a running
	// process sees, not necessarily what survives a crash).
	ReadFile(name string) ([]byte, error)
	// ReadDir lists the names (not full paths) of dir's entries.
	ReadDir(dir string) ([]string, error)
	// Rename atomically replaces newpath with oldpath. The rename is
	// immediately visible but only durable after SyncDir on the
	// containing directory.
	Rename(oldpath, newpath string) error
	// Remove deletes the named file.
	Remove(name string) error
	// SyncDir fsyncs a directory, making renames/creates/removes in it
	// durable. An unopenable directory is ignored (some platforms
	// cannot open directories for syncing); a real fsync failure on an
	// opened directory is reported.
	SyncDir(dir string) error
	// Lock takes an exclusive advisory lock on f, failing fast with an
	// error wrapping ErrLockHeld when another open handle (in this
	// process or, for OS, any process) already holds it. The lock is
	// released when f closes.
	Lock(f File) error
}

// ErrLockHeld reports that Lock found the file already locked by
// another writer.
var ErrLockHeld = errors.New("fsx: lock held by another writer")

// ErrCrashed is the error every operation returns at and after a
// Faulty filesystem's simulated crash point: from the process's view
// the machine lost power, and nothing it does afterwards changes the
// durable state.
var ErrCrashed = errors.New("fsx: simulated crash (power loss)")
