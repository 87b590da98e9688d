package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/securefd"
)

// result is one run's record: what ran, where, and every metric by name.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	N         int                `json:"n"`
	M         int                `json:"m"`
	WarmRows  int                `json:"warm_rows"`
	Reps      int                `json:"reps"` // timed discoveries
	Sets      int                `json:"sets_materialized"`
	Checks    int                `json:"checks"`
	Setups    int                `json:"setups"`  // set-up repetitions behind setup_s
	Updates   int                `json:"updates"` // stream updates, in blocks of blockSize
	Seconds   float64            `json:"seconds"` // asked for
	WallS     float64            `json:"wall_s"`  // whole run
	Correct   bool               `json:"correct"` // failed == 0
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Notes     []string           `json:"notes,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Every timed interval behind the time metrics, in order: discoveries
	// (on a traced run the odd-numbered ones are traced) with the Outsource
	// before each, set-ups, and the stream's blocks. The _s and _ms arrays
	// are the clock's reading and the _ran arrays the share of it the machine
	// was running (lap.ran); a time metric is the product of the two.
	RepDiscover  []float64 `json:"rep_discover_s"`
	RepRan       []float64 `json:"rep_discover_ran"`
	RepUpload    []float64 `json:"rep_upload_s"`
	RepUploadRan []float64 `json:"rep_upload_ran"`
	RepPeakRSS   []float64 `json:"rep_peak_rss_mb"`
	RepSetup     []float64 `json:"rep_setup_s"`
	RepSetupRan  []float64 `json:"rep_setup_ran"`
	BlockP50     []float64 `json:"block_update_p50_ms,omitempty"`
	BlockBusy    []float64 `json:"block_busy_s,omitempty"` // inside the block's Update and Revalidate calls
	BlockRan     []float64 `json:"block_ran,omitempty"`
	// The speedometer's samples, milliseconds per pass, and the factor every
	// time metric of the run was multiplied by: the nominal pass over their
	// median.
	SpeedPass   []float64          `json:"speed_pass_ms"`
	SpeedFactor float64            `json:"speed_factor"`
	Shares      map[string]float64 `json:"discover_share_pct,omitempty"` // traced: where one discovery's wall went
	TraceFile   string             `json:"trace_file,omitempty"`
	Env         envRecord          `json:"env"`
}

const mb = 1e6

// run executes one workload once and returns its record. An error is a
// failure of the harness itself; a wrong answer from the program is counted
// in the record instead.
//
// Every end-to-end time it reports is made the same way. Each timed interval
// is the clock's reading less what the host stole over it (lap.seconds): the
// time this machine was running. Set-ups, discoveries and stream blocks are
// each repeated a fixed number of times and the median taken. That median is
// multiplied by the run's speed factor (speedometer.factor): seconds of a
// machine of nominal speed. The per-layer times of a traced run are the
// clock's own, because they are read against each other, not across runs.
func run(cfg config) (*result, error) {
	runStart := time.Now()
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	steal0, _, ticks0 := cpuTicks()
	r := &runState{cfg: cfg, speed: speedometer{passes: cfg.passes}}
	if err := r.speed.sample(); err != nil {
		return nil, err
	}
	if cfg.traced {
		r.tr = newTracer("transport/")
	}
	r.nmOutsource, r.nmDiscover = r.tr.name("core/outsource"), r.tr.name("core/discover")
	r.nmUpdate, r.nmRevalidate = r.tr.name("core/update"), r.tr.name("core/revalidate")

	defer func() {
		if r.topo != nil {
			r.topo.close() // a no-op after the checked close below
		}
	}()
	nSetups := setups
	if cfg.traced {
		nSetups = 1
	}
	var db *securefd.Database
	for i := 0; i < nSetups; i++ {
		if db != nil {
			if err := db.Close(); err != nil {
				return nil, fmt.Errorf("set-up %d close: %w", i, err)
			}
			if err := r.topo.close(); err != nil {
				return nil, fmt.Errorf("set-up %d stop: %w", i, err)
			}
		}
		var err error
		if db, err = r.setup(); err != nil {
			return nil, err
		}
	}
	db, err := r.measure(db)
	if err != nil {
		return nil, err
	}
	r.stream(db)

	clientMem := db.ClientMemoryBytes()
	// One Stats call on the outermost service reports the whole stack: the
	// primary's stored bytes and any retry layer's count.
	stats, err := r.topo.client.Stats()
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}

	res := &result{
		Workload: cfg.name, Seed: cfg.seed, Traced: cfg.traced,
		N: cfg.n, M: cfg.m(), WarmRows: min(cfg.warm, cfg.n),
		Reps: len(r.reps), Setups: len(r.setups), Updates: len(r.updateMS),
		Seconds: cfg.seconds, Metrics: map[string]float64{},
	}
	m := res.Metrics

	// Counts must repeat exactly from one repetition to the next; if they
	// do not, the program is not doing the same work each time and no timing
	// of it means anything.
	last := r.reps[len(r.reps)-1]
	same := true
	var setup, upload, plain, traced, rebuild []float64 // seconds the machine ran
	for _, p := range r.speed.passS {
		res.SpeedPass = append(res.SpeedPass, p*1e3)
	}
	k := r.speed.factor()
	res.SpeedFactor = k
	for _, l := range r.setups {
		res.RepSetup = append(res.RepSetup, l.wall.Seconds())
		res.RepSetupRan = append(res.RepSetupRan, l.ran())
		setup = append(setup, l.seconds())
	}
	for _, rp := range r.reps {
		if rp.client != last.client || rp.sets != last.sets || rp.checks != last.checks {
			same = false
		}
		res.RepDiscover = append(res.RepDiscover, rp.discover.wall.Seconds())
		res.RepRan = append(res.RepRan, rp.discover.ran())
		res.RepUpload = append(res.RepUpload, rp.upload.wall.Seconds())
		res.RepUploadRan = append(res.RepUploadRan, rp.upload.ran())
		res.RepPeakRSS = append(res.RepPeakRSS, float64(rp.peakRSS)/mb)
		upload = append(upload, rp.upload.seconds())
		if rp.traced {
			traced = append(traced, rp.discover.seconds())
		} else {
			plain = append(plain, rp.discover.seconds())
			rebuild = append(rebuild, rp.upload.plus(rp.discover).seconds())
		}
	}
	r.gate.check(same, "discovery counts differ between repetitions of one run")
	res.Sets, res.Checks = last.sets, last.checks
	var p50s, rates []float64
	for _, b := range r.blocks {
		res.BlockP50 = append(res.BlockP50, b.p50MS)
		res.BlockBusy = append(res.BlockBusy, b.busy.Seconds())
		res.BlockRan = append(res.BlockRan, b.whole.ran())
		p50s = append(p50s, b.p50())
		rates = append(rates, b.rate())
	}

	m["setup_s"] = k * median(setup)
	m["discover_s"] = k * median(plain)
	m["discover_rounds"] = float64(last.client.rounds)
	m["discover_comm_mb"] = float64(last.client.bytesIn+last.client.bytesOut) / mb
	switch {
	case len(r.blocks) > 0:
		m["update_p50_ms"] = k * median(p50s)
		m["updates_per_s"] = median(rates) / k
	case cfg.blocks == 0:
		// Database.Update is ErrStatic on these protocols: after a record
		// changes, the FD set is current again only after a fresh Outsource
		// and a fresh Discover, which is what every repetition here is. The
		// contract has every workload report every end-to-end metric, so
		// these two read that rebuild — the figure the paper sets Ex-ORAM's
		// update against.
		m["update_p50_ms"] = k * median(rebuild) * 1e3
		m["updates_per_s"] = 1 / (k * median(rebuild))
	}
	m["client_mem_kb"] = float64(clientMem) / 1e3
	m["server_stored_mb"] = float64(stats.StoredBytes-r.storedBase) / mb
	m["peak_rss_mb"] = slices.Min(res.RepPeakRSS)

	if cfg.traced {
		if err := r.layerMetrics(res, stats.Retries, upload, plain, traced, clientMem); err != nil {
			return nil, err
		}
	}
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("final close: %w", err)
	}
	if err := r.topo.close(); err != nil {
		return nil, fmt.Errorf("stopping topology: %w", err)
	}
	if cfg.traced {
		res.TraceFile = filepath.Join(cfg.outDir, cfg.name+".trace.json")
		if err := r.tr.writeFile(res.TraceFile); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}

	res.Attempted, res.Failed, res.Notes = r.gate.attempted, r.gate.failed, r.gate.notes
	res.Correct = res.Failed == 0
	res.Env = readEnv(cfg.outDir)
	steal1, _, ticks1 := cpuTicks()
	res.Env.StealTicks = steal1 - steal0
	if ticks1 > ticks0 {
		res.Env.StealPct = 100 * float64(steal1-steal0) / float64(ticks1-ticks0)
	}
	res.WallS = time.Since(runStart).Seconds()
	return res, nil
}

// layerMetrics fills in the per-layer metrics of a traced run. Span times
// are those of the fastest traced repetition, so they telescope to that
// repetition's wall-clock; counts are one repetition's (they repeat exactly).
func (r *runState) layerMetrics(res *result, retries int64, upload, plain, tracedS []float64, clientMem int) error {
	cfg, m := r.cfg, res.Metrics
	var last, withReg repStat // last = the fastest traced repetition
	for _, rp := range r.reps {
		if rp.traced && (last.spans == nil || rp.discover.seconds() < last.discover.seconds()) {
			last = rp
		}
		if rp.reg != nil {
			withReg = rp
		}
	}
	for _, d := range perLayer {
		m[d.Name] = 0 // what a workload bypasses stays exactly 0
	}

	// process: read before the isolated unit runs below add their own work.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["process.cpu_s"] = cpuSeconds()
	m["process.gc_cycles"] = float64(ms.NumGC)
	m["process.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6
	m["process.alloc_mb"] = float64(ms.TotalAlloc) / mb
	m["process.heap_peak_mb"] = float64(ms.HeapSys) / mb

	// self and total seconds of the spans whose name has the prefix.
	spanS := func(prefix string) (self, total float64) {
		for name, a := range last.spans {
			if strings.HasPrefix(name, prefix) {
				self += float64(a.self) / 1e9
				total += float64(a.total) / 1e9
			}
		}
		return self, total
	}
	// from the one repetition that carried the program's registry
	reg := func(name string) float64 { return float64(withReg.reg[name]) }

	// core
	clientSelf, discoverWall := spanS("core/discover")
	m["core.sets_materialized"] = float64(last.sets)
	m["core.checks"] = float64(last.checks)
	m["core.client_self_s"] = clientSelf
	m["core.upload_ms"] = slices.Min(upload) * 1e3
	m["core.update_p99_ms"] = percentile(r.updateMS, 0.99)
	m["core.revalidate_us"] = median(r.revalidateUS)

	// crypto: unit costs at the workload's own mean cell size.
	cells := last.client.cellsRead + last.client.cellsWritten
	cellBytes := int((last.client.bytesIn+last.client.bytesOut)/max(cells, 1)) - crypto.Overhead
	sealNS, openNS, err := cryptoUnit(max(cellBytes, 1))
	if err != nil {
		return fmt.Errorf("crypto unit: %w", err)
	}
	opens, seals := reg("oblivfd_integrity_checks_total"), float64(last.client.cellsWritten)
	m["crypto.seal_ns"], m["crypto.open_ns"] = sealNS, openNS
	m["crypto.opens"], m["crypto.seals"] = opens, seals
	m["crypto.est_s"] = (opens*openNS + seals*sealNS) / 1e9

	// obsort / oram: counts from the program's registry, unit cost of the
	// dominant primitive from an isolated run.
	var prim primUnit
	var prims float64
	if cfg.proto == securefd.ProtocolSort {
		// A sort cell is one flag byte and the record.
		if prim, err = sortUnit(cfg.n, max(cellBytes-1, 8), cfg.seed); err != nil {
			return fmt.Errorf("sort unit: %w", err)
		}
		prims = reg("oblivfd_sort_comparisons_total")
		m["obsort.comparisons"] = prims
		m["obsort.stages"] = reg("oblivfd_sort_stages_total")
		m["obsort.ns_per_comparison"] = prim.wallNS
		m["obsort.cells_per_round"] = float64(cells) / float64(last.client.rounds)
	} else {
		capacity := cfg.n + r.options(nil).InsertHeadroom
		valueBytes := 8
		if cfg.blocks > 0 {
			valueBytes = 16
		}
		if prim, err = oramUnit(capacity, valueBytes, cfg.seed); err != nil {
			return fmt.Errorf("oram unit: %w", err)
		}
		prims = reg("oblivfd_oram_accesses_total")
		m["oram.accesses"] = prims
		m["oram.path_reads"] = reg("oblivfd_oram_path_reads_total")
		m["oram.path_writes"] = reg("oblivfd_oram_path_writes_total")
		m["oram.access_us"] = prim.wallNS / 1e3
		m["oram.rounds_per_access"] = float64(last.client.rounds) / prims
		m["oram.client_kb"] = float64(clientMem) / 1e3
	}
	// The independent check on the attribution: the client's own time, as
	// the spans measured it, against the program's counts priced at the
	// isolated unit costs. What is left over is where to look next.
	explained := (prims*prim.clientNS +
		max(opens-prims*prim.opens, 0)*openNS +
		max(seals-prims*prim.seals, 0)*sealNS) / 1e9
	m["core.unexplained_pct"] = 100 * (clientSelf - explained) / clientSelf
	if cfg.name == "sort-mem" {
		if m["core.w2_speedup"], err = workersSpeedup(prefix(r.rel, min(cfg.n, 2048))); err != nil {
			return fmt.Errorf("workers probe: %w", err)
		}
	}

	// transport: exactly 0 when the engine calls the store in-process.
	transportSelf := 0.0
	if cfg.topo != topoMem {
		payload := float64(last.client.bytesIn + last.client.bytesOut)
		transportSelf, _ = spanS("transport/")
		m["transport.rounds"] = float64(last.client.rounds)
		m["transport.wire_mb"] = float64(last.wire) / mb
		m["transport.wire_overhead_pct"] = 100 * (float64(last.wire)/payload - 1)
		m["transport.bytes_per_round"] = float64(last.wire) / float64(last.client.rounds)
		m["transport.self_s"] = transportSelf
		m["transport.rtt_p50_us"] = r.tr.selfMedianNS() / 1e3
		m["transport.reconnects"] = float64(r.topo.conn.Reconnects())
	}

	// store
	serverSelf, _ := spanS("store/")
	_, fsS := spanS("fs/")
	_, shipS := spanS("ship/")
	m["store.read_ops"] = float64(last.server.readOps)
	m["store.write_ops"] = float64(last.server.writeOps)
	m["store.cells_read"] = float64(last.server.cellsRead)
	m["store.cells_written"] = float64(last.server.cellsWritten)
	m["store.server_self_s"] = serverSelf
	m["store.fs_s"], m["store.ship_s"] = fsS, shipS
	if p := r.topo.primary; p != nil {
		d := last.durable
		m["store.wal_appends"] = float64(d.walAppends)
		m["store.wal_mb"] = float64(d.walBytes) / mb
		m["store.wal_fsyncs"] = float64(d.walSyncs)
		m["store.write_amp"] = float64(d.walBytes) / float64(last.server.bytesOut)
		m["store.snapshots"] = float64(d.snapshots)
		m["store.snapshot_mb"] = float64(d.snapBytes) / mb
		m["store.ship_batches"] = float64(d.shipBatches)
		m["store.ship_mb"] = float64(d.shipBytes) / mb
		m["store.replica_lag_end"] = float64(p.ReplicaLag())
	}
	m["store.retries"] = float64(retries)

	// trace
	m["trace.overhead_pct"] = 100 * (slices.Min(tracedS)/slices.Min(plain) - 1)
	m["trace.spans"] = float64(r.tr.numSpans())
	m["e2e.discover_min_s"] = slices.Min(plain)
	m["e2e.discover_max_s"] = slices.Max(plain)

	res.Shares = map[string]float64{
		"core":      100 * clientSelf / discoverWall,
		"transport": 100 * transportSelf / discoverWall,
		"store":     100 * serverSelf / discoverWall,
		"fs":        100 * fsS / discoverWall,
		"ship":      100 * shipS / discoverWall,
	}
	return nil
}
