package main

// metricDef declares one metric. The tables below are what the program
// reports; bench_test.go checks that BENCHMARK.json declares the same.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees; every workload reports every
// one of them on an untraced run. MB is 10^6 bytes and KB 10^3.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"discover_s", "s", lower, 0.25},
	{"discover_rounds", "count", lower, 0.001},
	{"discover_comm_mb", "MB", lower, 0.001},
	{"update_p50_ms", "ms", lower, 0.25},
	{"updates_per_s", "ops/s", higher, 0.25},
	{"client_mem_kb", "KB", lower, 0.01},
	{"server_stored_mb", "MB", lower, 0.01},
	{"peak_rss_mb", "MB", lower, 0.25},
}

// perLayer comes from the traced run: counts the layers keep themselves,
// self times from the benchmark's spans, and isolated unit costs. A metric
// of a layer a workload bypasses reads exactly 0 there.
var perLayer = []metricDef{
	{"core.sets_materialized", "count", lower, 0},
	{"core.checks", "count", lower, 0},
	{"core.client_self_s", "s", lower, 0},
	{"core.upload_ms", "ms", lower, 0},
	{"core.update_p99_ms", "ms", lower, 0},
	{"core.revalidate_us", "us", lower, 0},
	{"core.unexplained_pct", "%", lower, 0},
	{"core.w2_speedup", "x", higher, 0},

	{"crypto.seal_ns", "ns", lower, 0},
	{"crypto.open_ns", "ns", lower, 0},
	{"crypto.opens", "count", lower, 0},
	{"crypto.seals", "count", lower, 0},
	{"crypto.est_s", "s", lower, 0},

	{"obsort.comparisons", "count", lower, 0},
	{"obsort.stages", "count", lower, 0},
	{"obsort.ns_per_comparison", "ns", lower, 0},
	{"obsort.cells_per_round", "count", higher, 0},

	{"oram.accesses", "count", lower, 0},
	{"oram.path_reads", "count", lower, 0},
	{"oram.path_writes", "count", lower, 0},
	{"oram.access_us", "us", lower, 0},
	{"oram.rounds_per_access", "count", lower, 0},
	{"oram.client_kb", "KB", lower, 0},

	{"transport.rounds", "count", lower, 0},
	{"transport.wire_mb", "MB", lower, 0},
	{"transport.wire_overhead_pct", "%", lower, 0},
	{"transport.bytes_per_round", "B", lower, 0},
	{"transport.self_s", "s", lower, 0},
	{"transport.rtt_p50_us", "us", lower, 0},
	{"transport.reconnects", "count", lower, 0},

	{"store.read_ops", "count", lower, 0},
	{"store.write_ops", "count", lower, 0},
	{"store.cells_read", "count", lower, 0},
	{"store.cells_written", "count", lower, 0},
	{"store.server_self_s", "s", lower, 0},
	{"store.wal_appends", "count", lower, 0},
	{"store.wal_mb", "MB", lower, 0},
	{"store.wal_fsyncs", "count", lower, 0},
	{"store.fs_s", "s", lower, 0},
	{"store.write_amp", "x", lower, 0},
	{"store.snapshots", "count", lower, 0},
	{"store.snapshot_mb", "MB", lower, 0},
	{"store.ship_batches", "count", lower, 0},
	{"store.ship_mb", "MB", lower, 0},
	{"store.ship_s", "s", lower, 0},
	{"store.replica_lag_end", "count", lower, 0},
	{"store.retries", "count", lower, 0},

	{"process.cpu_s", "s", lower, 0},
	{"process.gc_cycles", "count", lower, 0},
	{"process.gc_pause_ms", "ms", lower, 0},
	{"process.alloc_mb", "MB", lower, 0},
	{"process.heap_peak_mb", "MB", lower, 0},

	{"trace.overhead_pct", "%", lower, 0},
	{"trace.spans", "count", lower, 0},
	{"e2e.discover_min_s", "s", lower, 0},
	{"e2e.discover_max_s", "s", lower, 0},
}

// runSeconds is how long one run measures; BENCHMARK.json carries it.
const runSeconds = 20
