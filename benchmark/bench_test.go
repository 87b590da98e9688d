package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/oblivfd/oblivfd/internal/store"
)

// testConfig is a workload cut down to test size: n = 32 and, through
// -seconds, the minimum of two repetitions and two stream blocks; the
// speedometer off, so that times are as measured.
func testConfig(t *testing.T, sp spec, seed int64, traced bool) config {
	t.Helper()
	sp.n, sp.warm = 32, 8
	return config{spec: sp, seed: seed, seconds: 0.05, traced: traced, outDir: t.TempDir()}
}

func mustRun(t *testing.T, cfg config) *result {
	t.Helper()
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s seed %d traced=%v: %v", cfg.name, cfg.seed, cfg.traced, err)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Fatalf("%s seed %d traced=%v: failed %d of %d: %v", cfg.name, cfg.seed, cfg.traced, res.Failed, res.Attempted, res.Notes)
	}
	return res
}

// Every workload emits exactly the declared metrics; the counts the
// benchmark gates are identical with and without tracing and across two
// runs of one seed (which is what shows the seams forward store.Batcher and
// add no calls of their own); and a second seed passes the oracle too.
func TestWorkloads(t *testing.T) {
	for _, sp := range workloads {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			t.Parallel()
			plain := mustRun(t, testConfig(t, sp, 1, false))
			again := mustRun(t, testConfig(t, sp, 1, false))
			traced := mustRun(t, testConfig(t, sp, 1, true))
			cfg := testConfig(t, sp, 2, false)
			cfg.passes = 1
			if res := mustRun(t, cfg); len(res.SpeedPass) < 1+setups+res.Reps || res.SpeedFactor <= 0 || res.SpeedFactor == 1 {
				t.Errorf("speedometer on: %d samples, factor %v", len(res.SpeedPass), res.SpeedFactor)
			}
			if plain.SpeedFactor != 1 {
				t.Errorf("speedometer off: factor %v", plain.SpeedFactor)
			}

			for _, d := range endToEnd {
				v, ok := plain.Metrics[d.Name]
				if !ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("end-to-end metric %s = %v (present %v); must be measured and never 0", d.Name, v, ok)
				}
			}
			for _, d := range perLayer {
				if v, ok := traced.Metrics[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v (present %v)", d.Name, v, ok)
				}
			}
			if want := len(endToEnd) + len(perLayer); len(traced.Metrics) != want {
				t.Errorf("traced run has %d metrics, declared %d", len(traced.Metrics), want)
			}
			if len(plain.Metrics) != len(endToEnd) {
				t.Errorf("untraced run has %d metrics, declared %d", len(plain.Metrics), len(endToEnd))
			}
			for _, other := range []*result{again, traced} {
				for _, name := range []string{"discover_rounds", "discover_comm_mb"} {
					if plain.Metrics[name] != other.Metrics[name] {
						t.Errorf("%s: %v vs %v (traced=%v)", name, plain.Metrics[name], other.Metrics[name], other.Traced)
					}
				}
				if plain.Sets != other.Sets || plain.Checks != other.Checks {
					t.Errorf("sets/checks %d/%d vs %d/%d (traced=%v)", plain.Sets, plain.Checks, other.Sets, other.Checks, other.Traced)
				}
			}
			if got := traced.Metrics["core.sets_materialized"]; got != float64(plain.Sets) {
				t.Errorf("core.sets_materialized = %v, untraced run materialized %d", got, plain.Sets)
			}
			if _, err := os.Stat(filepath.Join(filepath.Dir(traced.TraceFile), sp.name+".trace.json")); err != nil {
				t.Errorf("trace file: %v", err)
			}

			// The separation the workloads exist for.
			zero := map[string][]string{
				"sort-mem":       {"transport.self_s", "transport.rounds", "store.wal_appends", "store.ship_batches", "store.fs_s", "store.ship_s", "oram.accesses"},
				"oram-tcp":       {"obsort.comparisons", "store.wal_appends", "store.ship_batches"},
				"sort-repl":      {"oram.accesses"},
				"exoram-dynamic": {"transport.self_s", "transport.rounds", "store.wal_appends", "store.ship_batches", "obsort.comparisons"},
			}
			for _, name := range append(zero[sp.name], "store.replica_lag_end", "store.retries", "transport.reconnects") {
				if v := traced.Metrics[name]; v != 0 {
					t.Errorf("%s = %v on %s, want exactly 0", name, v, sp.name)
				}
			}
			nonzero := map[string][]string{
				"sort-mem":       {"obsort.comparisons", "core.client_self_s", "core.w2_speedup"},
				"oram-tcp":       {"oram.accesses", "transport.self_s", "transport.wire_mb", "transport.rtt_p50_us"},
				"sort-repl":      {"store.wal_appends", "store.wal_fsyncs", "store.fs_s", "store.ship_s", "store.ship_batches", "store.snapshots", "transport.self_s"},
				"exoram-dynamic": {"oram.accesses", "core.update_p99_ms", "core.revalidate_us"},
			}
			for _, name := range nonzero[sp.name] {
				if v := traced.Metrics[name]; v <= 0 {
					t.Errorf("%s = %v on %s, want > 0", name, v, sp.name)
				}
			}
			if want := 2 * blockSize; sp.blocks > 0 && plain.Updates != want {
				t.Errorf("stream ran %d updates, want %d", plain.Updates, want)
			}
			if plain.Reps != 2 || traced.Reps != 4 || plain.Setups != setups {
				t.Errorf("%d untraced and %d traced-run repetitions, %d set-ups; want 2, 4 and %d", plain.Reps, traced.Reps, plain.Setups, setups)
			}
		})
	}
}

// The committed BENCHMARK.json says what the tables in metrics.go and
// workload.go say, and each why carries the sizes its workload runs at.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from metrics.go:\n%v\n%v", got.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(got.PerLayer, perLayer) {
		t.Errorf("per_layer differs from metrics.go")
	}
	if got.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, want %d", got.RunSeconds, runSeconds)
	}
	if len(got.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(got.Workloads), len(workloads))
	}
	for i, sp := range workloads {
		if got.Workloads[i].Name != sp.name || got.Workloads[i].Why != sp.why {
			t.Errorf("workload %d: %+v, want %s", i, got.Workloads[i], sp.name)
		}
		if len(sp.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", sp.name, len(sp.why))
		}
		if sizes := fmt.Sprintf("n=%d m=%d reps=%d", sp.n, sp.m(), sp.reps); !strings.Contains(sp.why, sizes) {
			t.Errorf("%s: why does not say %q", sp.name, sizes)
		}
		if sp.blocks > 0 && !strings.Contains(sp.why, fmt.Sprintf("%d Updates in %d blocks", sp.blocks*blockSize, sp.blocks)) {
			t.Errorf("%s: why does not give the stream's %d blocks", sp.name, sp.blocks)
		}
	}
	if !reflect.DeepEqual(got.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(got.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", got.Command, got.Paths)
	}
}

// slowStore delays every every-th read, write or batch by delay: a cost
// that falls on a call now and then, as a GC pause or a slow path in the
// store would.
type slowStore struct {
	store.Service
	every, calls int
	delay        time.Duration
}

func (s *slowStore) stall() {
	if s.calls++; s.calls%s.every == 0 {
		time.Sleep(s.delay)
	}
}

func (s *slowStore) ReadCells(name string, idx []int64) ([][]byte, error) {
	s.stall()
	return s.Service.ReadCells(name, idx)
}

func (s *slowStore) WriteCells(name string, idx []int64, cts [][]byte) error {
	s.stall()
	return s.Service.WriteCells(name, idx, cts)
}

func (s *slowStore) Batch(ops []store.BatchOp) ([][][]byte, error) {
	s.stall()
	return store.DoBatch(s.Service, ops)
}

// A slowdown that hits one call in twenty is in discover_s in full: with no
// steal to take off and the speedometer off, the time metrics are the
// clock's reading, and nothing is trimmed from them. (At this size a
// discovery lasts a few ticks of the steal counter, so the host is taken
// out; TestLapTakesOffStealOnly holds the correction to the steal there was,
// and the speedometer runs no code of the program's and divides every time
// of a run alike.)
func TestSporadicSlowdownShows(t *testing.T) {
	defer func(f func() ([]byte, error)) { procStat = f }(procStat)
	procStat = func() ([]byte, error) { return []byte("cpu 0 0 0 0 0 0 0 0 0 0\n"), nil }
	const every, delay = 20, 2 * time.Millisecond
	sp, _ := findSpec("sort-mem")
	base := mustRun(t, testConfig(t, sp, 1, false))
	cfg := testConfig(t, sp, 1, false)
	cfg.backend = func(svc store.Service) store.Service {
		return &slowStore{Service: svc, every: every, delay: delay}
	}
	slow := mustRun(t, cfg)

	rounds := base.Metrics["discover_rounds"]
	if slow.Metrics["discover_rounds"] != rounds {
		t.Fatalf("the injected store changed discover_rounds: %v vs %v", slow.Metrics["discover_rounds"], rounds)
	}
	injected := (math.Floor(rounds/every) - 1) * delay.Seconds() // at least this much in every discovery
	if injected < 0.02 {
		t.Fatalf("only %.3f s injected over %v rounds; the test needs more", injected, rounds)
	}
	if moved := slow.Metrics["discover_s"] - base.Metrics["discover_s"]; moved < 0.8*injected {
		t.Errorf("discover_s moved by %.4f s (%.4f to %.4f) for %.4f s of injected delay", moved, base.Metrics["discover_s"], slow.Metrics["discover_s"], injected)
	}
	if moved := (slow.Metrics["update_p50_ms"] - base.Metrics["update_p50_ms"]) / 1e3; moved < 0.8*injected {
		t.Errorf("update_p50_ms moved by %.4f s for %.4f s of injected delay", moved, injected)
	}
}

// What comes off a lap is never more than the steal there was and never more
// than the stolen share of the lap; a lap spent waiting, with idle CPUs and
// so no steal, keeps all of its time.
func TestLapTakesOffStealOnly(t *testing.T) {
	for _, c := range []struct {
		what string
		l    lap
		want float64
	}{
		{"quiet", lap{wall: 2 * time.Second}, 2},
		{"one thread, held for 0.5 s", lap{wall: 2 * time.Second, stealS: 0.5, stolen: 0.25}, 1.5},
		{"two threads, both held for 0.5 s", lap{wall: 2 * time.Second, stealS: 1, stolen: 0.25}, 1.5},
		{"asleep but for 0.1 s, a tick stolen", lap{wall: 2 * time.Second, stealS: 0.01, stolen: 0.1}, 1.99},
	} {
		if got := c.l.seconds(); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: %v s, want %v", c.what, got, c.want)
		}
	}
	a, b := lap{wall: time.Second, stealS: 0.5, stolen: 0.5}, lap{wall: 3 * time.Second}
	if sum := a.plus(b); sum.wall != 4*time.Second || sum.stealS != 0.5 || sum.stolen != 0.125 || sum.seconds() != 3.5 {
		t.Errorf("plus: %+v", sum)
	}

	defer func(f func() ([]byte, error)) { procStat = f }(procStat)
	stat := "cpu 100 0 50 1000 20 1 2 30 0 0\n"
	procStat = func() ([]byte, error) { return []byte(stat), nil }
	l0 := startLap()
	stat = "cpu 130 0 60 1100 25 1 2 50 0 0\ncpu0 1 2 3\n" // 60 runnable ticks more, 20 of them stolen
	if l := l0.stop(); l.stealS != 0.2 || math.Abs(l.stolen-1.0/3) > 1e-9 {
		t.Errorf("from /proc/stat: %+v", l)
	}
}

// A fused batch is one round through the seam, and store.DoBatch sees the
// seam as a Batcher; through an inner service that cannot fuse, each op is
// its own round.
func TestSeamForwardsBatcher(t *testing.T) {
	srv := store.NewServer()
	s := newSeam(srv, nil, "store")
	if err := s.CreateArray("a", 8); err != nil {
		t.Fatal(err)
	}
	ops := []store.BatchOp{
		{Write: true, Name: "a", Idx: []int64{0, 1}, Cts: [][]byte{{1, 2, 3}, {4, 5}}},
		{Name: "a", Idx: []int64{0, 1}},
		{Name: "a", Idx: []int64{1}},
	}
	before := s.counts()
	res, err := store.DoBatch(s, ops)
	if err != nil {
		t.Fatal(err)
	}
	got := s.counts().sub(before)
	want := seamCounts{rounds: 1, readOps: 2, writeOps: 1, cellsRead: 3, cellsWritten: 2, bytesIn: 7, bytesOut: 5}
	if got != want {
		t.Errorf("fused batch counted %+v, want %+v", got, want)
	}
	if len(res[1]) != 2 || len(res[2]) != 1 {
		t.Errorf("batch results %v", res)
	}

	unfused := newSeam(struct{ store.Service }{srv}, nil, "store")
	if _, err := store.DoBatch(unfused, ops); err != nil {
		t.Fatal(err)
	}
	if got := unfused.counts(); got.rounds != 3 || got.cellsRead != 3 || got.cellsWritten != 2 {
		t.Errorf("unfused batch counted %+v, want 3 rounds", got)
	}
}

// The tracer's self times telescope: a parent's self time is its duration
// minus its children's, across goroutine-free nesting.
func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer("b")
	a, b := tr.name("a"), tr.name("b")
	if tr.begin(a) {
		t.Fatal("recorded while disabled")
	}
	tr.enable(true)
	ra := tr.begin(a)
	rb := tr.begin(b)
	tr.end(rb)
	rb = tr.begin(b)
	tr.end(rb)
	tr.end(ra)
	agg := tr.since(nil)
	if agg["a"].count != 1 || agg["b"].count != 2 {
		t.Fatalf("counts %+v", agg)
	}
	if agg["a"].self != agg["a"].total-agg["b"].total {
		t.Errorf("self %d, want total %d minus children %d", agg["a"].self, agg["a"].total, agg["b"].total)
	}
	if tr.numSpans() != 3 || len(tr.selfLog) != 2 {
		t.Errorf("%d spans, %d logged self times", tr.numSpans(), len(tr.selfLog))
	}
	path := filepath.Join(t.TempDir(), "t.json")
	if err := tr.writeFile(path); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Names []string
		Spans [][]int64
	}
	raw, _ := os.ReadFile(path)
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Spans) != 3 || doc.Spans[1][1] != 0 {
		t.Errorf("trace file: %v %+v", err, doc)
	}
}

// quartiles must be Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("got %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}
