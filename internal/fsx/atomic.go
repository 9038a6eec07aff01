package fsx

import (
	"io"
	"path/filepath"
	"strings"
)

// WriteFileAtomic writes a file through a temporary sibling: the
// writer runs against a uniquely named "<path>.tmp.*" file, which is
// fsynced, closed, and renamed over the destination only if every
// step succeeded. A crash or write error never leaves a half-written
// file at path — at worst a stale tmp, which CleanStaleTmps (or the
// next successful write of the same name) disposes of. The tmp name
// is unique per call (os.CreateTemp-style), so two concurrent writers
// of the same destination — e.g. two dpmd instances pointed at
// different journals but the same -metrics-out — cannot clobber each
// other's tmp file: both renames are atomic and the destination is
// always exactly one writer's complete bytes. After the rename the
// containing directory is fsynced too, so the new directory entry
// itself survives a crash — without it the rename can still be
// sitting in the page cache when the machine dies, and the
// journal/metrics/events file quietly reverts to its old bytes (or
// vanishes).
//
// fs is OS in production and a fault-injecting Faulty under test; the
// crash explorer (Explore) proves the old-bytes-or-new-bytes
// invariant at every operation a power loss could interrupt.
func WriteFileAtomic(fs FS, path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := fs.CreateTemp(dir, filepath.Base(path)+tmpInfix+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		fs.Remove(tmp)
		return err
	}
	return fs.SyncDir(dir)
}

// tmpInfix marks WriteFileAtomic's temporary siblings; the unique
// suffix follows it. CleanStaleTmps keys on the same marker.
const tmpInfix = ".tmp."

// CleanStaleTmps removes temporary siblings a crashed or killed
// writer left next to path: every "<base>.tmp.*" in path's directory,
// plus the fixed "<base>.tmp" name that older journal finalizes used.
// It returns how many were removed. Call it only when no live writer
// can be mid-write to path — a swept tmp makes that writer's rename
// fail. The journal runs it on Create and Open, under its writer lock.
func CleanStaleTmps(fs FS, path string) (int, error) {
	dir, base := filepath.Dir(path), filepath.Base(path)
	names, err := fs.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, name := range names {
		if strings.HasPrefix(name, base+tmpInfix) || name == base+".tmp" {
			if err := fs.Remove(filepath.Join(dir, name)); err != nil {
				return removed, err
			}
			removed++
		}
	}
	return removed, nil
}

// splitPattern splits an os.CreateTemp pattern at its last "*" into
// the name's prefix and suffix; a pattern without "*" is all prefix.
func splitPattern(pattern string) (prefix, suffix string) {
	if i := strings.LastIndexByte(pattern, '*'); i >= 0 {
		return pattern[:i], pattern[i+1:]
	}
	return pattern, ""
}
