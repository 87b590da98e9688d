# Development targets for oblivfd.

GO ?= go

.PHONY: all build vet staticcheck lint test test-race test-short crash tamper failover scrub bench experiments examples telemetry-smoke trace-smoke parallel-race multitenant-race multitenant-smoke multitenant-baseline bench-cell bench-wire bench-oram fuzz-smoke bench-align ledger mutants clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# staticcheck is optional locally (install: go install honnef.co/go/tools/cmd/staticcheck@latest);
# CI always runs it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

lint: vet staticcheck

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The race detector needs more than one core to be interesting, but still
# catches ordering bugs on one. -shuffle=on randomizes test order so suites
# that accidentally depend on a predecessor's state fail loudly.
test-race:
	$(GO) test -race -shuffle=on ./...

# Crash-injection suite: kill the server at seeded WAL offsets and the
# client between lattice levels of an Or-ORAM run over PathORAM, recover, and
# require identical results; plus the per-layer WAL, snapshot, kill-point,
# checkpoint and resume tests (the rest of these packages runs under `test`).
# -count=1 forces real (uncached) runs — these tests exercise the filesystem.
crash:
	$(GO) test -count=1 -run 'CrashRecovery' .
	$(GO) test -count=1 -run 'WAL|Snapshot|Checkpoint|Resume|KillPoint|OpenDir|Replay|GobEra|MidLog|OnDisk|ReplaceFile|Torn|ShortWrite|Fsync|ClientState' ./internal/store/ ./internal/core/ ./internal/oram/

# Tamper-injection suite: corrupt ciphertexts at seeded read offsets — Sort's
# run batches, Or-ORAM's label-array ranges and the PathORAM paths of Or-ORAM
# and Ex-ORAM, in-process and over TCP — plus WAL frames and snapshots at
# rest, and require every corruption to be detected (never a silent wrong FD
# set; a bit flip or a swap within a read is always refused).
# The per-layer integrity tests (AEAD rejection and location binding, bucket
# swaps and equivocation, sort runs' associated data and their flips, swaps,
# splices and truncations, ErrIntegrity across the wire)
# run with it; the rest of these packages runs under `test` and `test-race`.
# -race because detection paths cross the fault injector's locks.
tamper:
	$(GO) test -race -count=1 -run 'Tamper' .
	$(GO) test -race -count=1 -run 'Tamper|Integrity|Corrupt|Detected|BindsLocation|RunAD|TooShort|KeysDisagree|Sentinel|WireErrorTable' ./internal/crypto/ ./internal/oram/ ./internal/obsort/ ./internal/transport/

# Leakage-mutant catalogue: apply each testdata/mutants/NN-name.patch to a
# temporary copy of the tree and run the tests its header names; every one
# must fail. Fails if a mutant survives, no longer applies or does not build.
# Not part of `test` (it rebuilds a copy per mutant): ≈ 30 s on a 2-core host.
mutants:
	./scripts/mutants.sh

# Replication and failover chaos suite: kill the primary of a 3-node
# cluster at seeded WAL offsets mid-discovery and require the failover
# client to promote a replica and finish with the identical FD set; plus
# the per-layer properties (stream integrity, fencing, promotion), and the
# client's re-dial path (a dropped call fails once, the next call re-dials,
# Close never waits behind a failing call).
# -race because promotion and WAL shipping cross the replication locks, and
# a re-dial swaps the client's connection under its lock.
failover:
	$(GO) test -race -count=1 -run 'Failover' .
	$(GO) test -race -count=1 -run 'Replic|Fenc|Shipping|DownReplica|MalformedFence' ./internal/store/
	$(GO) test -race -count=1 -run 'Failover|Repl' ./internal/transport/
	$(GO) test -race -count=1 -run 'Heal|Drop|Resen|Close|Session' ./internal/transport/

# Self-healing chaos suite: seeded corruption (array cells, ORAM tree slots,
# WAL bytes, snapshot files) and an ENOSPC window injected mid-discovery on a
# replicated cluster over TCP, requiring identical FD sets with at least one
# repair per scenario; plus the scrubber/repair/disk-fault unit and property
# suites. -race because sweeps interleave with live mutations.
scrub:
	$(GO) test -race -count=1 -run 'TestScrub' .
	$(GO) test -race -count=1 -run 'Scrub|Repair|SelfHeal|DiskFull|Fsync|ShortWrite|Corrupt' ./internal/store/
	$(GO) test -race -count=1 -run 'Scrub|Repair|DiskFull' ./internal/transport/

bench:
	$(GO) test -bench=. -benchmem ./...

# Cell-path micro-benchmarks: what the Sort engine does to one fetched block
# (obsort compare-exchange block, a whole 4096-record sort with allocations
# per comparator), the AEAD calls under it (seal into a reused buffer, a
# 16-byte seal where the nonce draw shows, seal a block into one slab, open),
# the server's per-cell checksum at a Sort run's two sizes (32 records, 412 B
# before the labelling pass and 284 B after) and exoram-dynamic's widest
# bucket's (128 B), and what one whole B_X array
# costs the engine at n = 4096 when no union reads it and when one does,
# reporting the rounds, comparators and ciphertext bytes it takes (1 : 2 in
# networks — counts, not timings).
# CI runs them with BENCHTIME=1x so they keep compiling and running; for
# numbers, run them on a quiet machine.
BENCHTIME ?= 1s
bench-cell:
	$(GO) test -run '^$$' -bench 'CompareExchangeBlock|Sort4096' -benchmem -benchtime $(BENCHTIME) ./internal/obsort/
	$(GO) test -run '^$$' -bench 'Cipher' -benchmem -benchtime $(BENCHTIME) ./internal/crypto/
	$(GO) test -run '^$$' -bench 'CellSum' -benchmem -benchtime $(BENCHTIME) ./internal/store/
	$(GO) test -run '^$$' -bench 'SortPartition' -benchmem -benchtime $(BENCHTIME) ./internal/core/

# Wire-path micro-benchmarks: what one round trip and one logged mutation
# cost in the codec (frame encode + decode of a 2.5 KB ORAM path response and
# of a 64-cell batch, WAL record encode and verify + decode) and what a whole
# round trip costs over a loopback socket, without tracing and with a span
# recorded at each end; and what the decorator stack
# fdserver and fddiscover build (retry over metrics over a silent fault
# injector) adds to a 64-cell read, a 64-cell write and an 8-op batch — no
# workload of `go run ./benchmark` passes through a decorator, so that is the
# only number for the seam itself. Run like bench-cell.
bench-wire:
	$(GO) test -run '^$$' -bench 'FrameRoundTrip|LoopbackRTT' -benchmem -benchtime $(BENCHTIME) ./internal/transport/
	$(GO) test -run '^$$' -bench 'WALRecord|ServiceStack' -benchmem -benchtime $(BENCHTIME) ./internal/store/

# ORAM access-path micro-benchmarks: one whole oblivious access (path read,
# one open per bucket, eviction, one seal per bucket, path write) against the
# in-process server, on a full 256-key tree and on the two shapes the engines
# build in the benchmark's ORAM workloads (Ex-ORAM with insert headroom and
# O^IKL's 12-byte values, Or-ORAM with O^KL's 4-byte ones), and one batch of 64 accesses
# on the Or-ORAM shape, reporting the bucket opens and seals an access costs
# when the batch's paths share their buckets (10 alone); Setup of an empty
# tree of each of the two engine shapes, every bucket sealed as dummies,
# reporting its WriteBuckets calls (one each, a round each over the wire);
# then one record or
# one whole level of an ORAM engine's traversal over a loopback TCP connection,
# Or and Ex, reporting the rounds and accesses it costs as counts beside ns/op:
# of one set as an insertion steps it, single-attribute and union (rounds /
# accesses a record: Or 2 / 1 and 3 / 1, the label cells included; Ex 2 / 2
# and 3 / 4), and of a lattice level of w = 1, 3, 6 unions over their c = 2,
# 3, 4 covers on 1024 records, 16 chunks of 64 whose rounds overlap (18 rounds
# a level, ⌈n/64⌉ + 2, where a chunk alone took 3: 0.018 rounds a record, not
# 0.047; Or: 1024w accesses, Ex: 1024·(2w + c)). Run like bench-cell.
bench-oram:
	$(GO) test -run '^$$' -bench 'PathAccess|Setup' -benchmem -benchtime $(BENCHTIME) ./internal/oram/
	$(GO) test -run '^$$' -bench 'EngineStepLoopback|EngineLevelLoopback' -benchmem -benchtime $(BENCHTIME) ./internal/core/

# The six decoders that read bytes from outside the process — a request, a
# response, a WAL record, a server snapshot and a client checkpoint past
# their CRCs, and a frame's trace context — fuzzed briefly: error (or the
# zero context) or exact round trip, never a panic, never an allocation the
# bytes present cannot back. The seed corpora (every kind and logged record,
# a fresh snapshot and an overflowing tree shape, real checkpoints of both
# ORAM engines, bit-flipped and cut, the four kinds of trace header) also run
# as plain tests under `go test`.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime $(FUZZTIME) ./internal/transport/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResponse$$' -fuzztime $(FUZZTIME) ./internal/transport/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeWALRecord$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSnapshot$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCheckpoint$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzFromWire$$' -fuzztime $(FUZZTIME) ./internal/otrace/

# The benchmark (go run ./benchmark) multiplies every time it reports by its
# speedometer's reading, and the speedometer's inner loop runs about a third
# slower, and far less steadily, when the linker happens to lay it across a
# 64-byte line. Where it lands depends on the size of everything linked ahead
# of the benchmark's main package, so any change to the program can move it
# by 32 bytes. bench-align prints the address and fails unless
# main.(*speedometer).sample starts on a multiple of 64, where it has been
# since the benchmark was written (PR 15's CHANGES.md line has the story).
bench-align:
	@bin=$$(mktemp) && $(GO) build -o $$bin ./benchmark && \
	$(GO) tool nm $$bin | grep -E '[048c]0 T main\.\(\*speedometer\)\.sample$$'; s=$$?; rm -f $$bin; exit $$s

# Non-test Go lines per package directory, and their total: run it on the
# parent commit and on the change to report what a PR added or removed
# (ROADMAP item 9's running total).
ledger:
	@git ls-files '*.go' | grep -v '_test\.go$$' | xargs wc -l | \
	awk '$$2 != "total" { d = $$2; if (!sub("/[^/]*$$", "", d)) d = "."; n[d] += $$1; t += $$1 } \
	END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# Regenerate every table and figure, the compression ablation, the
# security-level and communication comparisons and the multi-tenant sweep at
# quick sizes; raise the flags toward the paper's scales for closer
# comparison (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/fdbench -exp all

# End-to-end telemetry check: fdserver with -metrics-addr, a TCP discovery
# with -telemetry, and curl assertions on /metrics, /metrics.json, pprof.
telemetry-smoke:
	./scripts/telemetry_smoke.sh

# End-to-end tracing check: a replicated 2-server pair, a discovery with
# -trace-out, and tracecheck assertions on the merged artifact (client and
# server spans share a trace ID, causal chain down to replication shipping),
# plus /trace.json and the replica's role gauges.
trace-smoke:
	$(GO) test -race -count=1 -run 'TestDistributedTraceCausalTree' .
	./scripts/trace_smoke.sh

# Serial-vs-parallel equivalence suite under the race detector, at one and
# four schedulable cores (GOMAXPROCS=1 hides interleavings; 4 exposes them):
# the sort engine's set-level waves, the bitonic network's workers sharing the
# compare-exchange kernel (sorted output and the same calls and trace at every
# worker count), the ORAM engines' level-at-a-time
# traversal (whole-trace equality across worker counts, the closed form of a
# level, a level wider than one group, a round lost in the middle of one), the
# ORAM pipeline's owed and begun handles, which pipelined records and chunks
# re-enter, the per-call framing of set-ups, fills and mutations on pairs of
# equal-leakage databases, and fresh labels counted across a chunk's records.
parallel-race:
	$(GO) test -race -count=1 -cpu 1,4 -run 'Parallel|RunBatch|Batch|Level|FailedStep|Pipeline|Framing|Fresh' ./internal/core/ ./internal/obsort/ ./internal/oram/ ./internal/store/ ./internal/transport/

# Multi-tenant suite under the race detector: session registry admission,
# namespace isolation, concurrent tenants under chaos faults, overload
# shedding, and two-tenant crash recovery. The registry, namespacing, and
# per-tenant marks are exactly the state concurrent clients contend on.
multitenant-race:
	$(GO) test -race -count=1 -run 'MultiTenant|Session|Namespace|CrashRecoveryTwoTenants' . ./internal/store/ ./internal/transport/

# Quick multi-tenant degradation check: a small client sweep over two
# namespaces against a tight in-flight budget. Sizes are CI-friendly;
# BENCH_multitenant.json (the committed baseline) is regenerated with
# multitenant-baseline instead.
multitenant-smoke: multitenant-race
	$(GO) run ./cmd/fdbench -exp multitenant -minn 64 -clients 1,4 -dbs 2

# Regenerate the committed multi-tenant baseline at the recorded settings.
multitenant-baseline:
	$(GO) run ./cmd/fdbench -exp multitenant -minn 128 -clients 1,2,4,8 -dbs 2 -mt-inflight 4 -mt-out BENCH_multitenant.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/dynamic
	$(GO) run ./examples/query_optimization
	$(GO) run ./examples/adversary_view
	$(GO) run ./examples/parallel_enclave

clean:
	$(GO) clean ./...
