package store

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
)

// FaultFS wraps an FS with seeded disk-fault injection: a deterministic
// ENOSPC window (optionally landing a short write first), fsync failures,
// and bit rot on file reads. The schedule is a pure function of the seed and
// the byte/call counters, so two runs over the same workload fail at the
// same points — the scrub/disk-fault chaos harness leans on that.
type FaultFSConfig struct {
	// Seed fixes the short-write cut points and rot bit positions.
	Seed int64
	// DiskFullAfterBytes arms the ENOSPC window: once this many bytes have
	// been written through the FS, further writes fail with ErrDiskFull
	// until DiskFullWrites of them have been refused (modeling space freed
	// elsewhere); 0 disables, and DiskFullWrites 0 makes the window
	// permanent. The window is counted in refusals, not bytes, because every
	// retry of a parked record spends that record's length again: a byte
	// budget asks for a number of retries that depends on which frame the
	// window happens to open on.
	DiskFullAfterBytes int64
	DiskFullWrites     int64
	// ShortWrites makes each ENOSPC-failing write land a random prefix
	// before erroring, the torn-write shape a real ENOSPC can leave.
	ShortWrites bool
	// FsyncFailAfter makes the Nth fsync (1-based) and every later one fail
	// with an injected I/O error; 0 disables. The durable layer treats any
	// fsync failure as fail-stop (never ack then lose).
	FsyncFailAfter int64
	// RotAfterReads flips one bit in the payload of the Nth file Read call
	// (1-based) and every RotEvery-th read after it; 0 disables. RotEvery 0
	// rots only the Nth read.
	RotAfterReads int64
	RotEvery      int64
}

// FaultFS implements FS. Safe for concurrent use.
type FaultFS struct {
	inner FS
	cfg   FaultFSConfig

	mu      sync.Mutex
	rng     *rand.Rand
	written int64 // bytes attempted through Write
	fsyncs  int64
	reads   int64

	injectedFull  int64
	injectedSync  int64
	injectedShort int64
}

// NewFaultFS wraps inner (OSFS when nil) with the given fault schedule.
func NewFaultFS(inner FS, cfg FaultFSConfig) *FaultFS {
	if inner == nil {
		inner = OSFS
	}
	return &FaultFS{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// BytesWritten reports the bytes attempted through Write so far — the
// coordinate system DiskFullAfterBytes windows are placed in.
func (f *FaultFS) BytesWritten() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.written
}

// DiskFullInjected reports how many writes were refused with ErrDiskFull.
func (f *FaultFS) DiskFullInjected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injectedFull
}

// FsyncFailuresInjected reports how many fsyncs were failed.
func (f *FaultFS) FsyncFailuresInjected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injectedSync
}

// admitWrite places a write of n attempted bytes against the ENOSPC window
// and reports whether it may proceed; when refused with ShortWrites armed, cut
// is the prefix length to land before erroring. The counters advance whether
// or not the write is admitted, so the schedule depends only on the workload.
func (f *FaultFS) admitWrite(n int) (ok bool, cut int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	pos := f.written
	f.written += int64(n)
	if f.cfg.DiskFullAfterBytes <= 0 || pos < f.cfg.DiskFullAfterBytes {
		return true, 0
	}
	if f.cfg.DiskFullWrites > 0 && f.injectedFull >= f.cfg.DiskFullWrites {
		return true, 0 // window passed: space was freed
	}
	f.injectedFull++
	if f.cfg.ShortWrites && n > 1 {
		f.injectedShort++
		cut = 1 + f.rng.Intn(n-1)
	}
	return false, cut
}

// admitSync reports whether an fsync may succeed.
func (f *FaultFS) admitSync() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fsyncs++
	if f.cfg.FsyncFailAfter > 0 && f.fsyncs >= f.cfg.FsyncFailAfter {
		f.injectedSync++
		return false
	}
	return true
}

// rotRead decides whether this read call gets a bit flipped, and where
// (fractional position into the payload, bit index).
func (f *FaultFS) rotRead() (bool, float64, uint) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reads++
	if f.cfg.RotAfterReads <= 0 || f.reads < f.cfg.RotAfterReads {
		return false, 0, 0
	}
	if f.reads > f.cfg.RotAfterReads && (f.cfg.RotEvery <= 0 || (f.reads-f.cfg.RotAfterReads)%f.cfg.RotEvery != 0) {
		return false, 0, 0
	}
	return true, f.rng.Float64(), uint(f.rng.Intn(8))
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error { return f.inner.MkdirAll(path, perm) }

func (f *FaultFS) Open(name string) (File, error) {
	inner, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f}, nil
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f}, nil
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	inner, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f}, nil
}

func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error) { return f.inner.ReadDir(name) }

// ReadFile routes through Open so whole-file reads (the FENCE file) are
// subject to rot injection like any other read.
func (f *FaultFS) ReadFile(name string) ([]byte, error) { return f.inner.ReadFile(name) }

func (f *FaultFS) Rename(oldpath, newpath string) error { return f.inner.Rename(oldpath, newpath) }

func (f *FaultFS) Remove(name string) error { return f.inner.Remove(name) }

func (f *FaultFS) Truncate(name string, size int64) error { return f.inner.Truncate(name, size) }

// faultFile intercepts the per-file operations the schedule covers.
type faultFile struct {
	File
	fs *FaultFS
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ok, cut := ff.fs.admitWrite(len(p))
	if ok {
		return ff.File.Write(p)
	}
	n := 0
	if cut > 0 && cut < len(p) {
		// The torn shape a real ENOSPC can leave: part of the payload lands
		// before the error. The WAL writer must roll this back.
		n, _ = ff.File.Write(p[:cut])
	}
	return n, fmt.Errorf("%w: injected ENOSPC writing %q (%d bytes refused)", ErrDiskFull, ff.Name(), len(p))
}

func (ff *faultFile) Sync() error {
	if ff.fs.admitSync() {
		return ff.File.Sync()
	}
	return fmt.Errorf("store: injected fsync failure on %q", ff.Name())
}

func (ff *faultFile) Read(p []byte) (int, error) {
	n, err := ff.File.Read(p)
	if n > 0 {
		if rot, frac, bit := ff.fs.rotRead(); rot {
			p[int(frac*float64(n))%n] ^= 1 << bit
		}
	}
	return n, err
}
