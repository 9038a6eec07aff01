package fsx

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
)

// OS is the passthrough filesystem: every method delegates straight
// to package os, so code threaded through fsx behaves byte-identically
// to code calling os directly. CreateTemp differs from os.CreateTemp
// only in the mode it gives the file.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// CreateTemp names its file as os.CreateTemp does, but creates it with
// mode 0644 less the umask, as OpenFile(name, O_CREATE, 0o644) would,
// instead of os.CreateTemp's 0600: a file renamed into place keeps the
// mode a direct create would have given it.
func (osFS) CreateTemp(dir, pattern string) (File, error) {
	prefix, suffix := splitPattern(pattern)
	for try := 0; ; try++ {
		name := filepath.Join(dir, prefix+strconv.FormatUint(uint64(rand.Uint32()), 10)+suffix)
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, os.ErrExist) && try < 10000 {
			continue
		}
		if err != nil {
			return nil, err
		}
		return f, nil
	}
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		// Nothing actionable: the platform or filesystem cannot open
		// directories for syncing.
		return nil
	}
	defer d.Close()
	return d.Sync()
}

// Lock takes the platform's exclusive advisory lock (flock on unix).
// The lock belongs to the open file description, so it excludes a
// second opener in the same process just as it excludes another
// process, and the kernel releases it automatically when the
// descriptor closes — a crashed holder never leaves a stale lock.
func (osFS) Lock(f File) error {
	of, ok := f.(*os.File)
	if !ok {
		return fmt.Errorf("fsx: Lock needs an OS file, got %T", f)
	}
	return lockFile(of)
}
