package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"github.com/oblivfd/oblivfd/internal/baseline"
	"github.com/oblivfd/oblivfd/internal/dataset"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
	"github.com/oblivfd/oblivfd/securefd"
)

// spec is one workload. Names never change; sizes may, and the sizes a run
// used are printed in its record.
type spec struct {
	name    string
	why     string
	proto   securefd.Protocol
	topo    topoKind
	n       int  // rows
	warm    int  // rows of the warm-up discovery in set-up, a prefix of the n
	cols    int  // dataset.RND columns
	reps    int  // timed discoveries in a run of runSeconds
	blocks  int  // update-stream blocks after the last discovery in a run of runSeconds; 0 = no stream
	planted bool // one more column, a function of column 0
	keep    bool // KeepPartitions, so client state is still held after Discover
}

// m is the attribute count the program under test sees.
func (sp spec) m() int {
	if sp.planted {
		return sp.cols + 1
	}
	return sp.cols
}

// The four workloads. All run one closed-loop client with Workers = 1. The
// sizes are in the why, because BENCHMARK.json has no other place for them.
var workloads = []spec{
	{
		name:  "sort-mem",
		why:   "Sort n=4096 m=3 reps=6, no wire, no disk: all time is core+obsort+crypto client compute, so comparator/AEAD/chunk work shows here and transport/WAL work must show nothing",
		proto: securefd.ProtocolSort, topo: topoMem, n: 4096, warm: 512, cols: 3, reps: 6,
	},
	{
		name:  "oram-tcp",
		why:   "Or-ORAM n=1024 m=3 reps=7 over one loopback TCP connection: round-heavy small frames, so transport codec+syscalls and oram dominate and obsort does nothing",
		proto: securefd.ProtocolORAM, topo: topoTCP, n: 1024, warm: 160, cols: 3, reps: 7, keep: true,
	},
	{
		name:  "sort-repl",
		why:   "Sort n=512 m=3 reps=10 over TCP into a durable primary shipping synchronously to a durable replica: the only workload with WAL append and replica ship on the critical path",
		proto: securefd.ProtocolSort, topo: topoRepl, n: 512, warm: 256, cols: 3, reps: 10,
	},
	{
		name:  "exoram-dynamic",
		why:   "Ex-ORAM n=2048 m=4 reps=3, then 2000 Updates in 20 blocks with Revalidate: point read-modify-write per record, so a bulk gain that costs updates (or the reverse) shows",
		proto: securefd.ProtocolDynamicORAM, topo: topoMem, n: 2048, warm: 256, cols: 3, reps: 3, blocks: 20, planted: true,
	},
}

func findSpec(name string) (spec, bool) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

const (
	// blockSize updates, then one Revalidate of every minimal FD, make one
	// block of the update stream.
	blockSize = 100
	// setups is how many times set-up is repeated on an untraced run;
	// setup_s is their median. A traced run does not report it and sets up
	// once.
	setups = 5
)

// config is one run.
type config struct {
	spec
	seed    int64
	seconds float64
	traced  bool
	outDir  string
	passes  int // timed passes per speedometer sample; 0 in tests that need times as measured
	// backend, nil outside tests, wraps the store the topology is built on so
	// that a test can put a known delay into the program's path.
	backend func(store.Service) store.Service
}

// scaled turns a repetition count sized for runSeconds into the count for
// the seconds asked for, never below two. The count depends on the command
// line alone, never on how fast the machine happens to be, so the statistic
// taken over the repetitions is the same one on every run.
func (c config) scaled(k int) int {
	return max(2, int(math.Round(float64(k)*c.seconds/runSeconds)))
}

func dep(v string) string { return "d" + v }

// genRelation makes the workload's input from the seed alone: dataset.RND,
// with one duplicate planted per column in the first rows. Without it a
// column of n = 1024 draws from 2^20 values is a key in six seeds out of ten
// and the lattice — and so every count the benchmark gates — would depend on
// the seed; with it every column is a non-key and every pair a key, at every
// n and in the warm-up prefix too.
func genRelation(sp spec, seed int64) *relation.Relation {
	n := sp.n
	base := dataset.RND(sp.cols, n, seed)
	names := base.Schema().Names()
	if sp.planted {
		names = append(names, "DEP")
	}
	rows := make([]relation.Row, n)
	for i := range rows {
		rows[i] = make(relation.Row, len(names))
		copy(rows[i], base.Row(i))
	}
	for j := 0; j < sp.cols && 2*j+1 < n; j++ {
		rows[2*j+1][j] = rows[2*j][j]
	}
	if sp.planted {
		for _, r := range rows {
			r[sp.cols] = dep(r[0])
		}
	}
	return relation.MustFromRows(relation.MustNewSchema(names...), rows)
}

func prefix(rel *relation.Relation, n int) *relation.Relation {
	rows := make([]relation.Row, n)
	for i := range rows {
		rows[i] = rel.Row(i)
	}
	return relation.MustFromRows(rel.Schema(), rows)
}

// gate is the correctness gate: every answer the program gives is checked
// here and a wrong one is counted, never dropped.
type gate struct {
	attempted, failed int
	notes             []string
}

func (g *gate) check(ok bool, format string, args ...any) bool {
	g.attempted++
	if !ok {
		g.failed++
		if len(g.notes) < 20 {
			g.notes = append(g.notes, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// repStat is what one timed discovery left behind.
type repStat struct {
	traced   bool
	upload   lap        // the Outsource before it
	discover lap        // Database.Discover
	peakRSS  int64      // VmHWM after it, reset before it
	client   seamCounts // across Discover only
	server   seamCounts
	wire     int64         // listener bytes across Discover
	durable  durableCounts // across Discover and the snapshot after it
	spans    map[string]spanAgg
	reg      map[string]int64 // the program's own counters across Discover
	sets     int
	checks   int
}

// blockStat is what one block of the update stream left behind.
type blockStat struct {
	p50MS float64       // median latency of the block's updates, as the clock read it
	busy  time.Duration // inside the block's Update and Revalidate calls, as the clock read it
	whole lap           // the block from its first update to the end of its Revalidate
}

// One update is a few milliseconds and the steal counter ticks in hundredths
// of a second, so the host's share is taken over the whole block and the
// block's figures reduced by it.
func (b blockStat) p50() float64  { return b.p50MS * b.whole.ran() }
func (b blockStat) rate() float64 { return blockSize / (b.busy.Seconds() * b.whole.ran()) }

// durableCounts is what the durable and replicating layers did, as the
// benchmark's I/O wrappers and the store's own WAL counter saw it.
type durableCounts struct {
	walAppends, walBytes, walSyncs, snapshots, snapBytes, shipBatches, shipBytes int64
}

func (t *topology) durable() durableCounts {
	if t.primary == nil {
		return durableCounts{}
	}
	return durableCounts{
		walAppends: t.primary.Durable().WALAppends(), walBytes: t.fs.walBytes.Load(), walSyncs: t.fs.walSyncs.Load(),
		snapshots: t.fs.snapshots.Load(), snapBytes: t.fs.snapBytes.Load(),
		shipBatches: t.shipBatches.Load(), shipBytes: t.shipBytes.Load(),
	}
}

func (a durableCounts) sub(b durableCounts) durableCounts {
	return durableCounts{
		walAppends: a.walAppends - b.walAppends, walBytes: a.walBytes - b.walBytes, walSyncs: a.walSyncs - b.walSyncs,
		snapshots: a.snapshots - b.snapshots, snapBytes: a.snapBytes - b.snapBytes,
		shipBatches: a.shipBatches - b.shipBatches, shipBytes: a.shipBytes - b.shipBytes,
	}
}

// regCounters are the program's own counters the traced run reads.
var regCounters = []string{
	"oblivfd_integrity_checks_total",
	"oblivfd_sort_comparisons_total",
	"oblivfd_sort_stages_total",
	"oblivfd_oram_accesses_total",
	"oblivfd_oram_path_reads_total",
	"oblivfd_oram_path_writes_total",
}

func readCounters(reg *telemetry.Registry) map[string]int64 {
	out := make(map[string]int64, len(regCounters))
	for _, n := range regCounters {
		out[n] = reg.Counter(n).Value()
	}
	return out
}

// runState is a run in progress.
type runState struct {
	cfg    config
	speed  speedometer
	gate   gate
	tr     *tracer
	topo   *topology
	rel    *relation.Relation
	oracle []relation.FD

	nmOutsource, nmDiscover, nmUpdate, nmRevalidate uint16

	setups      []lap // every set-up
	firstUpload lap   // the Outsource that ends the last set-up
	reps        []repStat
	storedBase  int64 // primary's StoredBytes before the current database was uploaded

	blocks       []blockStat
	updateMS     []float64 // every update of the stream
	revalidateUS []float64
}

func (r *runState) options(reg *telemetry.Registry) securefd.Options {
	return securefd.Options{
		Protocol: r.cfg.proto, Workers: 1, KeepPartitions: r.cfg.keep, Telemetry: reg,
		InsertHeadroom: r.streamBlocks() * blockSize,
	}
}

// streamBlocks is the length of the update stream in blocks; it fixes
// InsertHeadroom, and with it every ORAM's capacity.
func (r *runState) streamBlocks() int {
	if r.cfg.blocks == 0 {
		return 0
	}
	return r.cfg.scaled(r.cfg.blocks)
}

// outsource uploads rel as a fresh database, remembering what the server
// held before so the database's own footprint can be told apart from what
// earlier repetitions left (a Database has no way to delete its columns).
func (r *runState) outsource(rel *relation.Relation, reg *telemetry.Registry) (*securefd.Database, lap, error) {
	st, err := r.topo.client.Stats()
	if err != nil {
		return nil, lap{}, err
	}
	r.storedBase = st.StoredBytes
	rec := r.tr.begin(r.nmOutsource)
	l0 := startLap()
	db, err := securefd.Outsource(r.topo.client, rel, r.options(reg))
	l := l0.stop()
	r.tr.end(rec)
	return db, l, err
}

// discover runs one discovery and gates its answer against the oracle.
func (r *runState) discover(db *securefd.Database, oracle []relation.FD, what string) (*securefd.Report, lap) {
	rec := r.tr.begin(r.nmDiscover)
	l0 := startLap()
	rep, err := db.Discover()
	l := l0.stop()
	r.tr.end(rec)
	if err != nil {
		r.gate.check(false, "%s: %v", what, err)
	} else {
		r.gate.check(relation.FDSetEqual(rep.Minimal, oracle), "%s: FD set differs from the plaintext oracle (%d vs %d FDs)", what, len(rep.Minimal), len(oracle))
	}
	return rep, l
}

// setup is everything before the first timed discovery: generate the
// relation, compute the oracle, start the topology and dial, run a warm-up
// discovery of the same protocol over the same topology on a prefix of the
// rows, then the first Outsource.
func (r *runState) setup() (*securefd.Database, error) {
	l0 := startLap()
	r.rel = genRelation(r.cfg.spec, r.cfg.seed)
	r.oracle = baseline.MinimalFDs(r.rel)
	topo, err := startTopology(r.cfg.topo, r.tr, r.cfg.outDir, r.cfg.backend)
	if err != nil {
		return nil, fmt.Errorf("starting topology: %w", err)
	}
	r.topo = topo

	warm := prefix(r.rel, min(r.cfg.warm, r.cfg.n))
	wdb, _, err := r.outsource(warm, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up outsource: %w", err)
	}
	r.discover(wdb, baseline.MinimalFDs(warm), "warm-up discovery")
	if err := wdb.Close(); err != nil {
		return nil, fmt.Errorf("warm-up close: %w", err)
	}
	db, upload, err := r.outsource(r.rel, nil)
	if err != nil {
		return nil, fmt.Errorf("first outsource: %w", err)
	}
	r.firstUpload = upload
	r.setups = append(r.setups, l0.stop())
	if err := r.speed.sample(); err != nil {
		return nil, err
	}
	return db, nil
}

// measure times the workload's discoveries, each on a fresh Outsource (the
// first on the one set-up ended with), and returns the last database still
// open. A traced run does twice as many, alternating untraced and traced, so
// that the tracing overhead is a difference inside one run.
func (r *runState) measure(db *securefd.Database) (*securefd.Database, error) {
	reps := r.cfg.scaled(r.cfg.reps)
	if r.cfg.traced {
		reps *= 2
	}
	upload := r.firstUpload
	counted := false
	for rep := 0; rep < reps; rep++ {
		traced := r.cfg.traced && rep%2 == 1
		var reg *telemetry.Registry
		resetPeakRSS()
		if rep > 0 {
			if err := db.Close(); err != nil {
				return nil, fmt.Errorf("close %d: %w", rep-1, err)
			}
			if traced && !counted {
				// The program's own registry is read for counts only, and
				// counts repeat exactly, so one repetition carries it; the
				// other traced repetitions time the benchmark's spans alone.
				reg, counted = telemetry.New(), true
			}
			r.tr.enable(traced)
			var err error
			if db, upload, err = r.outsource(r.rel, reg); err != nil {
				return nil, fmt.Errorf("outsource %d: %w", rep, err)
			}
		}
		st := repStat{traced: traced, upload: upload}
		reg0 := readCounters(reg)
		c0, s0, w0 := r.topo.counts()
		a0, d0 := r.tr.snapshot(), r.topo.durable()
		var report *securefd.Report
		report, st.discover = r.discover(db, r.oracle, fmt.Sprintf("discovery %d", rep))
		c1, s1, w1 := r.topo.counts()
		st.client, st.server, st.wire = c1.sub(c0), s1.sub(s0), w1-w0
		if traced {
			st.spans = r.tr.since(a0)
		}
		if reg != nil {
			st.reg = readCounters(reg)
			for n, v := range reg0 {
				st.reg[n] -= v
			}
		}
		if report != nil {
			st.sets, st.checks = report.SetsMaterialized, report.Checks
		}
		if r.topo.primary != nil {
			// What fdserver does on a graceful stop; it also compacts the
			// WAL, so the log a repetition appends to starts empty.
			if err := r.topo.primary.Snapshot(); err != nil {
				return nil, fmt.Errorf("snapshot: %w", err)
			}
		}
		r.tr.enable(false)
		st.durable = r.topo.durable().sub(d0)
		st.peakRSS = peakRSSBytes()
		r.reps = append(r.reps, st)
		if err := r.speed.sample(); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// stream drives the paper's update — delete one live record, insert one —
// through Database.Update in blocks of blockSize, each followed by one
// Revalidate of every minimal FD whose verdicts are checked against the
// benchmark's plaintext mirror.
func (r *runState) stream(db *securefd.Database) {
	rng := rand.New(rand.NewSource(r.cfg.seed ^ 0x5eed))
	mirror := make(map[int]relation.Row, r.cfg.n)
	live := make([]int, r.cfg.n)
	for i := range live {
		live[i] = i
		mirror[i] = r.rel.Row(i)
	}
	r.tr.enable(r.cfg.traced)
	defer r.tr.enable(false)
	for block, k := 0, 0; block < r.streamBlocks(); block++ {
		var busy time.Duration // inside the program: this block's Updates and its Revalidate
		l0 := startLap()
		lat := make([]float64, 0, blockSize)
		for i := 0; i < blockSize; i, k = i+1, k+1 {
			vi := rng.Intn(len(live))
			row := make(relation.Row, r.cfg.m())
			for j := 0; j < r.cfg.cols; j++ {
				row[j] = strconv.Itoa(rng.Intn(1<<20) + 1)
			}
			row[r.cfg.cols] = dep(row[0])
			if i == blockSize/2 {
				// One new row per block copies a live row's column 0 under a
				// fresh dependent value, breaking C0 → DEP until the copied
				// row (or this one) is deleted again.
				other := live[(vi+1+rng.Intn(len(live)-1))%len(live)]
				row[0] = mirror[other][0]
				row[r.cfg.cols] = "x" + strconv.Itoa(k)
			}
			rec := r.tr.begin(r.nmUpdate)
			t0 := time.Now()
			id, err := db.Update(live[vi], row)
			d := time.Since(t0)
			r.tr.end(rec)
			if !r.gate.check(err == nil, "update %d: %v", k, err) {
				return // the mirror no longer matches; nothing after this can be judged
			}
			busy += d
			lat = append(lat, float64(d.Nanoseconds())/1e6)
			delete(mirror, live[vi])
			mirror[id], live[vi] = row, id
		}
		rec := r.tr.begin(r.nmRevalidate)
		t0 := time.Now()
		rv, err := db.Revalidate(r.oracle)
		d := time.Since(t0)
		r.tr.end(rec)
		busy += d
		r.revalidateUS = append(r.revalidateUS, float64(d.Nanoseconds())/1e3)
		r.updateMS = append(r.updateMS, lat...)
		r.blocks = append(r.blocks, blockStat{p50MS: median(lat), busy: busy, whole: l0.stop()})
		if block%4 == 3 {
			if err := r.speed.sample(); err != nil {
				r.gate.check(false, "speedometer: %v", err)
				return
			}
		}
		if err != nil {
			r.gate.check(false, "revalidate after %d updates: %v", k, err)
		} else {
			r.gate.check(verdictsMatch(rv, r.oracle, mirror, r.rel.Schema()), "revalidate after %d updates: verdicts differ from the plaintext mirror", k)
		}
	}
}

// verdictsMatch checks a Revalidation against FD.Holds on the mirror.
func verdictsMatch(rv *securefd.Revalidation, fds []relation.FD, mirror map[int]relation.Row, schema *relation.Schema) bool {
	ids := make([]int, 0, len(mirror))
	for id := range mirror {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	rows := make([]relation.Row, len(ids))
	for i, id := range ids {
		rows[i] = mirror[id]
	}
	rel := relation.MustFromRows(schema, rows)
	valid := make(map[relation.FD]bool, len(rv.Valid))
	for _, fd := range rv.Valid {
		valid[fd] = true
	}
	if len(rv.Valid)+len(rv.Invalidated) != len(fds) {
		return false
	}
	for _, fd := range fds {
		if valid[fd] != fd.Holds(rel) {
			return false
		}
	}
	return true
}
