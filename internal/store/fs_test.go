package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// recordingFS is the real filesystem with every step ReplaceFile takes logged
// by name, and the step named failAt failed.
type recordingFS struct {
	FS
	steps  []string
	failAt string
}

var errStep = errors.New("injected step failure")

func (r *recordingFS) step(name string) error {
	r.steps = append(r.steps, name)
	if name == r.failAt {
		return fmt.Errorf("%s: %w", name, errStep)
	}
	return nil
}

func (r *recordingFS) CreateTemp(dir, pattern string) (File, error) {
	if err := r.step("create"); err != nil {
		return nil, err
	}
	f, err := r.FS.CreateTemp(dir, pattern)
	return &recordingFile{File: f, fs: r, what: "file"}, err
}

func (r *recordingFS) Open(name string) (File, error) {
	f, err := r.FS.Open(name)
	return &recordingFile{File: f, fs: r, what: "dir"}, err
}

func (r *recordingFS) Rename(oldpath, newpath string) error {
	if err := r.step("rename"); err != nil {
		return err
	}
	return r.FS.Rename(oldpath, newpath)
}

type recordingFile struct {
	File
	fs   *recordingFS
	what string
}

func (f *recordingFile) Write(p []byte) (int, error) {
	if err := f.fs.step(f.what + " write"); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *recordingFile) Sync() error {
	if err := f.fs.step(f.what + " sync"); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *recordingFile) Close() error {
	err := f.File.Close()
	if serr := f.fs.step(f.what + " close"); serr != nil {
		return serr
	}
	return err
}

// TestReplaceFileOrderAndCleanup: ReplaceFile writes the temporary file, syncs
// it, renames it over the target and then syncs the directory, in that order.
// A failure at any step is returned, nothing but closing a file follows it,
// and no temporary file is left behind; the target is the old file until the
// rename has happened and the new one after.
func TestReplaceFileOrderAndCleanup(t *testing.T) {
	all := []string{"create", "file write", "file sync", "file close", "rename", "dir sync", "dir close"}
	for _, failAt := range append([]string{""}, all...) {
		dir := t.TempDir()
		path := filepath.Join(dir, "target")
		if err := os.WriteFile(path, []byte("old"), 0o600); err != nil {
			t.Fatal(err)
		}
		fsys := &recordingFS{FS: OSFS, failAt: failAt}
		err := ReplaceFile(fsys, path, "target-*.tmp", func(w io.Writer) error {
			_, err := io.WriteString(w, "new")
			return err
		})
		switch {
		case failAt == "" && err != nil:
			t.Fatalf("no failure injected: %v", err)
		case failAt == "" && !slices.Equal(fsys.steps, all):
			t.Errorf("steps %q, want %q", fsys.steps, all)
		case failAt != "" && !errors.Is(err, errStep):
			t.Errorf("%s failed: ReplaceFile = %v, want the injected error", failAt, err)
		case failAt != "":
			for _, s := range fsys.steps[slices.Index(fsys.steps, failAt)+1:] {
				if !strings.HasSuffix(s, " close") {
					t.Errorf("%s failed, then %q ran (steps %q)", failAt, s, fsys.steps)
				}
			}
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Errorf("failure at %q: directory holds %d entries, want the target alone", failAt, len(entries))
		}
		want := "new"
		if failAt != "" && slices.Index(all, failAt) <= slices.Index(all, "rename") {
			want = "old"
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("failure at %q: target holds %q (%v), want %q", failAt, got, err, want)
		}
	}
}
