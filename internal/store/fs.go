package store

import (
	"io"
	"os"
	"path/filepath"
)

// FS abstracts the filesystem operations the durable store performs, so the
// disk-fault harness can inject ENOSPC, short writes, fsync failures, and
// bit rot underneath the WAL/snapshot/FENCE paths without touching a real
// disk's failure modes. The default implementation (OSFS) forwards to the os
// package; DurableOptions.FS selects an alternative.
type FS interface {
	// MkdirAll creates a directory path (os.MkdirAll semantics).
	MkdirAll(path string, perm os.FileMode) error
	// Open opens a file (or directory, for fsync) read-only.
	Open(name string) (File, error)
	// OpenFile is the generalized open (os.OpenFile semantics).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// CreateTemp creates a unique temporary file in dir (os.CreateTemp).
	CreateTemp(dir, pattern string) (File, error)
	// ReadDir lists a directory (os.ReadDir).
	ReadDir(name string) ([]os.DirEntry, error)
	// ReadFile reads a whole file (os.ReadFile).
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath (os.Rename).
	Rename(oldpath, newpath string) error
	// Remove deletes a file (os.Remove).
	Remove(name string) error
	// Truncate resizes the named file (os.Truncate).
	Truncate(name string, size int64) error
}

// File is the open-file surface the store uses: sequential reads and
// appends, fsync, in-place truncation. *os.File implements it.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Name() string
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
}

// OSFS is the real filesystem.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) Open(name string) (File, error) { return os.Open(name) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// ReplaceFile replaces path atomically with what write puts in it: write goes
// to a temporary file beside path (named by pattern, as CreateTemp names
// them), which is fsynced, closed and renamed over path, and then the
// directory is fsynced, so that once ReplaceFile returns neither a crash nor a
// power loss can bring the older file back. On failure the temporary file is
// removed and the error returned; path is either the old file or, if only the
// directory fsync failed, the new one.
func ReplaceFile(fsys FS, path, pattern string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, pattern)
	if err != nil {
		return err
	}
	name := tmp.Name()
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(name, path)
	}
	if err != nil {
		_ = fsys.Remove(name) // best effort: err is the failure to report
		return err
	}
	return syncDir(fsys, dir)
}
