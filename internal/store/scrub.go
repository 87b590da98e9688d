package store

import (
	"errors"
	"io"
	"log/slog"
	"os"
	"time"

	"github.com/oblivfd/oblivfd/internal/otrace"
	"github.com/oblivfd/oblivfd/internal/telemetry"
)

// Background integrity scrubbing: a Scrubber periodically sweeps everything
// the durable store is responsible for — retained snapshot files, the WAL,
// and every stored cell of every named array and ORAM tree — verifying
// checksums and repairing what it can before a foreground read trips over
// the damage.
//
// Sweep order is fixed and data-independent (DESIGN.md §15): snapshots in
// ascending sequence order, then the WAL front to back, then objects in
// ascending name order with indices ascending, paced by a token bucket whose
// refill depends only on wall time. Everything the sweep's timing or order
// could reveal — object names, extents, file sizes — is public structure the
// adversary already holds, so scrubbing adds nothing to the leakage profile.
//
// Repair strategy by damage site:
//
//   - Stored cells, primary with replicas: fetch verified bytes from the
//     freshest peer (RepairStored), reinstall, ship the repair.
//   - Stored cells, replica: MarkDiverged — the primary's next shipment
//     triggers the existing snapshot resync, replacing every local byte.
//   - Stored cells, no peers: counted and left for foreground reads to fail
//     loudly with ErrIntegrity (the PR 4 contract; scrubbing must not turn
//     detectable corruption into silence).
//   - Snapshot file or WAL damage (any role): the live in-memory state is
//     still good — write a fresh snapshot, which also truncates the WAL,
//     and drop the corrupt file. No peer needed.

// ScrubConfig tunes a Scrubber.
type ScrubConfig struct {
	// Interval is the pause between full sweeps (default 30s).
	Interval time.Duration
	// Rate limits scrub work in units per second — one unit per stored cell
	// verified, one per KiB of snapshot/WAL file scanned. Zero or negative
	// means unlimited (tests; fdserver defaults to 65536).
	Rate int64
	// Metrics, when set, exposes the oblivfd_scrub_* counters/gauges, and
	// the Scrubber's accessors read those shared series: one scrubber per
	// registry, as fdserver builds one per process.
	Metrics *telemetry.Registry
}

// scrubChunkCells is how many cells a sweep verifies per lock acquisition;
// mutations interleave between chunks.
const scrubChunkCells = 512

func (c ScrubConfig) withDefaults() ScrubConfig {
	if c.Interval <= 0 {
		c.Interval = 30 * time.Second
	}
	return c
}

// Scrubber owns the background sweep goroutine. Construct with NewScrubber,
// run with Start, stop with Close; SweepOnce is also exported directly for
// tests and the chaos harness.
type Scrubber struct {
	d   *DurableServer
	rep *ReplicatedServer // nil when unreplicated: detect-only for cells
	cfg ScrubConfig

	stop chan struct{}
	done chan struct{}

	// One counter per event: the registry's series when cfg.Metrics is set,
	// a private counter otherwise.
	sweeps       *telemetry.Counter
	cells        *telemetry.Counter
	files        *telemetry.Counter
	corruptions  *telemetry.Counter
	repairs      *telemetry.Counter
	repairFails  *telemetry.Counter
	sweepSeconds *telemetry.Gauge

	// pacer state: a token bucket refilled by wall time only, so the sleep
	// schedule is a function of public sizes, never cell contents.
	tokens   int64
	lastFill time.Time
}

// NewScrubber builds a scrubber over d. rep may be nil (no repair path for
// cell corruption) or the ReplicatedServer wrapping d.
func NewScrubber(d *DurableServer, rep *ReplicatedServer, cfg ScrubConfig) *Scrubber {
	cfg = cfg.withDefaults()
	counter := func(name string) *telemetry.Counter {
		if cfg.Metrics != nil {
			return cfg.Metrics.Counter(name)
		}
		return telemetry.NewCounter()
	}
	return &Scrubber{
		d:   d,
		rep: rep,
		cfg: cfg,

		sweeps:       counter("oblivfd_scrub_sweeps_total"),
		cells:        counter("oblivfd_scrub_cells_total"),
		files:        counter("oblivfd_scrub_files_total"),
		corruptions:  counter("oblivfd_scrub_corruptions_total"),
		repairs:      counter("oblivfd_scrub_repairs_total"),
		repairFails:  counter("oblivfd_scrub_repair_failures_total"),
		sweepSeconds: cfg.Metrics.Gauge("oblivfd_scrub_last_sweep_millis"),
	}
}

// Start launches the background sweep loop. Safe to call once.
func (sc *Scrubber) Start() {
	sc.stop = make(chan struct{})
	sc.done = make(chan struct{})
	go func() {
		defer close(sc.done)
		t := time.NewTicker(sc.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-sc.stop:
				return
			case <-t.C:
				if err := sc.SweepOnce(); err != nil && !errors.Is(err, ErrServerKilled) {
					slog.Warn("scrub: sweep failed", "err", err)
				}
			}
		}
	}()
}

// Close stops the background loop and waits for an in-flight sweep.
func (sc *Scrubber) Close() {
	if sc.stop == nil {
		return
	}
	close(sc.stop)
	<-sc.done
	sc.stop = nil
}

// Sweeps reports completed full sweeps.
func (sc *Scrubber) Sweeps() int64 { return sc.sweeps.Value() }

// CellsScrubbed reports stored cells verified since construction.
func (sc *Scrubber) CellsScrubbed() int64 { return sc.cells.Value() }

// Corruptions reports distinct damage findings (cell batches and files).
func (sc *Scrubber) Corruptions() int64 { return sc.corruptions.Value() }

// Repairs reports damage findings successfully healed.
func (sc *Scrubber) Repairs() int64 { return sc.repairs.Value() }

// RepairFailures reports damage findings that could not be healed.
func (sc *Scrubber) RepairFailures() int64 { return sc.repairFails.Value() }

// pace charges n work units against the rate limit, sleeping as needed.
// Interruptible by Close.
func (sc *Scrubber) pace(n int64) {
	if sc.cfg.Rate <= 0 || n <= 0 {
		return
	}
	now := time.Now()
	if sc.lastFill.IsZero() {
		sc.lastFill = now
	}
	sc.tokens += int64(now.Sub(sc.lastFill).Seconds() * float64(sc.cfg.Rate))
	if sc.tokens > sc.cfg.Rate {
		sc.tokens = sc.cfg.Rate // burst cap: one second of work
	}
	sc.lastFill = now
	sc.tokens -= n
	if sc.tokens >= 0 {
		return
	}
	wait := time.Duration(float64(-sc.tokens) / float64(sc.cfg.Rate) * float64(time.Second))
	if sc.stop != nil {
		select {
		case <-sc.stop:
		case <-time.After(wait):
		}
		return
	}
	time.Sleep(wait)
}

// SweepOnce runs one full sweep in the fixed order: snapshot files, the
// WAL, then every object's cells. It returns the first hard error (server
// dead); individual corruption findings are counted and repaired in-line,
// not returned.
func (sc *Scrubber) SweepOnce() error {
	t0 := time.Now()
	if err := sc.sweepSnapshots(); err != nil {
		return err
	}
	if err := sc.sweepWAL(); err != nil {
		return err
	}
	if err := sc.sweepObjects(); err != nil {
		return err
	}
	sc.sweeps.Inc()
	sc.sweepSeconds.Set(time.Since(t0).Milliseconds())
	return nil
}

// sweepSnapshots verifies every retained snapshot file's framing and CRC.
// A corrupt file is healed from live memory: the server writes a fresh
// snapshot (which also compacts the WAL) and the damaged file is removed.
func (sc *Scrubber) sweepSnapshots() error {
	seqs, _, err := sc.d.snapshotScrubView()
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		path := snapPath(sc.d.dir, seq)
		ok, bytesRead, verr := sc.verifySnapshotFile(path)
		sc.files.Inc()
		sc.pace(bytesRead / 1024)
		if verr != nil {
			// The file vanished: concurrent pruning, not corruption.
			continue
		}
		if ok {
			continue
		}
		sc.corruptions.Inc()
		slog.Warn("scrub: corrupt snapshot file", "path", path)
		if err := sc.healFiles(); err != nil {
			sc.repairFails.Inc()
			if errors.Is(err, ErrServerKilled) {
				return err
			}
			continue
		}
		// The fresh snapshot supersedes the damaged file; remove it so
		// recovery can never pick it (pruning would get it eventually, but
		// a known-bad file should not wait for retention to age it out).
		if rerr := sc.d.fsys.Remove(path); rerr != nil && !os.IsNotExist(rerr) {
			slog.Warn("scrub: removing corrupt snapshot", "path", path, "err", rerr)
		}
		sc.repairs.Inc()
	}
	return nil
}

// verifySnapshotFile reads and validates one snapshot file. ok=false means
// the bytes are damaged; err non-nil means the file could not be read at
// all (vanished under a concurrent prune).
func (sc *Scrubber) verifySnapshotFile(path string) (ok bool, bytesRead int64, err error) {
	f, err := sc.d.fsys.Open(path)
	if err != nil {
		return false, 0, err
	}
	defer f.Close()
	_, _, _, verr := readSnapshotStream(f)
	if info, serr := f.Stat(); serr == nil {
		bytesRead = info.Size()
	}
	return verr == nil, bytesRead, nil
}

// sweepWAL scans the log's valid prefix front to back. The verdict only
// counts if no compaction truncated the file during the scan — otherwise
// whatever the scan saw is an artifact of reading a file being rewritten.
func (sc *Scrubber) sweepWAL() error {
	path, size, truncsBefore := sc.d.walScrubView()
	if size == 0 {
		return nil
	}
	f, err := sc.d.fsys.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	// Scan exactly the frames the writer considers complete; bytes past
	// size belong to appends racing this scan and are not judged.
	_, validEnd, torn, scanErr := scanWAL(io.LimitReader(f, size))
	f.Close()
	sc.files.Inc()
	sc.pace(size / 1024)
	_, _, truncsAfter := sc.d.walScrubView()
	if truncsAfter != truncsBefore {
		return nil // compacted mid-scan; next sweep sees the new log
	}
	if !torn && scanErr == nil && validEnd == size {
		return nil
	}
	// Damage inside the acknowledged prefix: every one of those records is
	// already applied in memory, so a fresh snapshot (which truncates the
	// log) loses nothing and removes the damage.
	sc.corruptions.Inc()
	slog.Warn("scrub: corrupt WAL prefix", "path", path, "validEnd", validEnd, "size", size)
	if err := sc.healFiles(); err != nil {
		sc.repairFails.Inc()
		if errors.Is(err, ErrServerKilled) {
			return err
		}
		return nil
	}
	sc.repairs.Inc()
	return nil
}

// healFiles rewrites durable state from live memory: one fresh snapshot,
// which also compacts the WAL. Used for snapshot-file and WAL damage, where
// memory (guarded by per-cell checksums) is still the good copy.
func (sc *Scrubber) healFiles() error {
	return sc.d.Snapshot()
}

// sweepObjects verifies every stored cell's checksum, in ascending name and
// index order, a chunk at a time so live traffic interleaves.
func (sc *Scrubber) sweepObjects() error {
	names, err := sc.d.ObjectNames()
	if err != nil {
		return err
	}
	diverged := false
	for _, name := range names {
		n, err := sc.d.ObjectExtent(name)
		if err != nil {
			if errors.Is(err, ErrUnknownObject) {
				continue // deleted since the listing; public event
			}
			return err
		}
		for lo := 0; lo < n; lo += scrubChunkCells {
			hi := lo + scrubChunkCells
			if hi > n {
				hi = n
			}
			bad, err := sc.d.VerifyStored(name, lo, hi)
			if err != nil {
				if errors.Is(err, ErrUnknownObject) || errors.Is(err, ErrOutOfRange) {
					break // deleted or shrunk by a concurrent create-as-replace
				}
				return err
			}
			sc.cells.Add(int64(hi - lo))
			sc.pace(int64(hi - lo))
			if len(bad) == 0 {
				continue
			}
			sc.corruptions.Inc()
			slog.Warn("scrub: corrupt stored cells", "object", name, "cells", len(bad))
			switch {
			case sc.rep != nil && sc.rep.IsPrimary():
				if rerr := sc.rep.RepairStored(otrace.SpanContext{}, name, bad); rerr != nil {
					sc.repairFails.Inc()
					slog.Warn("scrub: repair from replica failed", "object", name, "err", rerr)
				} else {
					sc.repairs.Inc()
				}
			case sc.rep != nil:
				// Replica: one resync heals everything; flag once per sweep.
				if !diverged {
					sc.rep.MarkDiverged()
					diverged = true
					sc.repairs.Inc()
				}
			default:
				// No peers: detection only. Foreground reads of these cells
				// fail loudly with ErrIntegrity, exactly as before scrubbing
				// existed.
				sc.repairFails.Inc()
			}
		}
	}
	return nil
}
