package store

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// flaky is a Service stub that fails the first failures calls to one method
// with the given error, then delegates to a real server.
type flaky struct {
	*Server
	err      error
	failures int
	seen     int
	applied  bool // when set, the operation applies despite the error
}

func (f *flaky) WriteCells(name string, idx []int64, cts [][]byte) error {
	if f.seen < f.failures {
		f.seen++
		if f.applied {
			_ = f.Server.WriteCells(name, idx, cts)
		}
		return f.err
	}
	return f.Server.WriteCells(name, idx, cts)
}

func (f *flaky) CreateArray(name string, n int) error {
	if f.seen < f.failures {
		f.seen++
		if f.applied {
			_ = f.Server.CreateArray(name, n)
		}
		return f.err
	}
	return f.Server.CreateArray(name, n)
}

// fastPolicy keeps test backoffs instant and records sleeps.
func fastPolicy(p RetryPolicy, slept *[]time.Duration) RetryPolicy {
	p.sleep = func(d time.Duration) {
		if slept != nil {
			*slept = append(*slept, d)
		}
	}
	return p
}

func TestRetryRecoversFromTransient(t *testing.T) {
	backend := &flaky{Server: NewServer(), err: fmt.Errorf("%w: test", ErrTransient), failures: 3}
	if err := backend.Server.CreateArray("a", 4); err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	r := WithRetry(backend, fastPolicy(RetryPolicy{MaxAttempts: 5, InitialBackoff: time.Millisecond, MaxBackoff: 3 * time.Millisecond}, &slept))
	if err := r.WriteCells("a", []int64{0}, [][]byte{{1}}); err != nil {
		t.Fatalf("WriteCells with 3 transient failures: %v", err)
	}
	if r.Retries() != 3 {
		t.Errorf("Retries() = %d, want 3", r.Retries())
	}
	if len(slept) != 3 {
		t.Fatalf("slept %d times, want 3", len(slept))
	}
	// The schedule grows: each sleep stays under its ceiling, and the
	// ceilings double from InitialBackoff until MaxBackoff caps them.
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 3 * time.Millisecond}
	for i, w := range want {
		if c := r.policy.ceiling(i + 1); c != w {
			t.Errorf("ceiling before retry %d = %v, want %v", i+1, c, w)
		}
	}
	for i, d := range slept {
		if c := r.policy.ceiling(i + 1); d < 0 || d > c {
			t.Errorf("backoff %d = %v outside [0, %v]", i+1, d, c)
		}
	}
	st, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Retries != 3 {
		t.Errorf("Stats.Retries = %d, want 3", st.Retries)
	}
}

func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	backend := &flaky{Server: NewServer(), err: fmt.Errorf("%w: test", ErrTransient), failures: 100}
	_ = backend.Server.CreateArray("a", 4)
	r := WithRetry(backend, fastPolicy(RetryPolicy{MaxAttempts: 4}, nil))
	err := r.WriteCells("a", []int64{0}, [][]byte{{1}})
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want wrapped ErrTransient", err)
	}
	if backend.seen != 4 {
		t.Errorf("backend saw %d attempts, want 4", backend.seen)
	}
}

func TestRetryFatalErrorsNotRetried(t *testing.T) {
	r := WithRetry(NewServer(), fastPolicy(RetryPolicy{}, nil))
	if err := r.CreateArray("a", 2); err != nil {
		t.Fatal(err)
	}
	if err := r.CreateArray("a", 2); !errors.Is(err, ErrObjectExists) {
		t.Fatalf("duplicate create = %v, want ErrObjectExists", err)
	}
	if _, err := r.ReadCells("missing", []int64{0}); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("missing read = %v, want ErrUnknownObject", err)
	}
	if r.Retries() != 0 {
		t.Errorf("fatal errors consumed %d retries", r.Retries())
	}
}

// TestRetryReconcilesLostCreateAck: the first CreateArray applies but its
// acknowledgement is "lost" (fail-after); the retry's ErrObjectExists is
// reconciled to success.
func TestRetryReconcilesLostCreateAck(t *testing.T) {
	backend := &flaky{Server: NewServer(), err: fmt.Errorf("%w: ack lost", ErrTransient), failures: 1, applied: true}
	r := WithRetry(backend, fastPolicy(RetryPolicy{}, nil))
	if err := r.CreateArray("a", 4); err != nil {
		t.Fatalf("create with lost ack = %v, want reconciled success", err)
	}
	if n, err := r.ArrayLen("a"); err != nil || n != 4 {
		t.Fatalf("array after reconciled create: %d, %v", n, err)
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	backend := &flaky{Server: NewServer(), err: fmt.Errorf("%w: test", ErrTransient), failures: 100}
	_ = backend.Server.CreateArray("a", 4)
	r := WithRetry(backend, fastPolicy(RetryPolicy{MaxAttempts: 10, Budget: 2}, nil))
	err := r.WriteCells("a", []int64{0}, [][]byte{{1}})
	if !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("err = %v, want ErrRetryBudgetExhausted", err)
	}
}

func TestRetryCallTimeout(t *testing.T) {
	backend := &flaky{Server: NewServer(), err: fmt.Errorf("%w: test", ErrTransient), failures: 100}
	_ = backend.Server.CreateArray("a", 4)
	// Real sleeps here: the deadline must trip before MaxAttempts does.
	r := WithRetry(backend, RetryPolicy{
		MaxAttempts:    50,
		InitialBackoff: 20 * time.Millisecond,
		CallTimeout:    30 * time.Millisecond,
	})
	start := time.Now()
	err := r.WriteCells("a", []int64{0}, [][]byte{{1}})
	if err == nil || !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want deadline error wrapping ErrTransient", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("deadline did not bound the call: took %v", d)
	}
	if backend.seen >= 50 {
		t.Errorf("deadline did not stop attempts: %d", backend.seen)
	}
}

func TestRetryJitterDeterministic(t *testing.T) {
	run := func() []time.Duration {
		backend := &flaky{Server: NewServer(), err: fmt.Errorf("%w: test", ErrTransient), failures: 5}
		_ = backend.Server.CreateArray("a", 4)
		var slept []time.Duration
		r := WithRetry(backend, fastPolicy(RetryPolicy{MaxAttempts: 6, Seed: 11}, &slept))
		if err := r.WriteCells("a", []int64{0}, [][]byte{{1}}); err != nil {
			t.Fatal(err)
		}
		return slept
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("sleep counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("jittered backoff %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestRetryFullJitterBounds: every delay is drawn from [0, ceiling] where
// the ceiling follows the doubling schedule of the default policy.
func TestRetryFullJitterBounds(t *testing.T) {
	backend := &flaky{Server: NewServer(), err: fmt.Errorf("%w: test", ErrTransient), failures: 5}
	_ = backend.Server.CreateArray("a", 4)
	var slept []time.Duration
	p := fastPolicy(RetryPolicy{MaxAttempts: 6, Seed: 7}, &slept)
	r := WithRetry(backend, p)
	if err := r.WriteCells("a", []int64{0}, [][]byte{{1}}); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 5 {
		t.Fatalf("slept %d times, want 5", len(slept))
	}
	ceiling := 5 * time.Millisecond // InitialBackoff default
	for i, d := range slept {
		if d < 0 || d > ceiling {
			t.Errorf("backoff %d = %v outside [0, %v]", i, d, ceiling)
		}
		if ceiling < time.Second { // MaxBackoff default
			ceiling *= 2
		}
	}
}

// TestRetryFullJitterDecorrelates: two clients built with the default
// (unseeded) policy must not share a retry schedule — synchronized storms
// are exactly what full jitter exists to prevent.
func TestRetryFullJitterDecorrelates(t *testing.T) {
	run := func() []time.Duration {
		backend := &flaky{Server: NewServer(), err: fmt.Errorf("%w: test", ErrTransient), failures: 8}
		_ = backend.Server.CreateArray("a", 4)
		var slept []time.Duration
		r := WithRetry(backend, fastPolicy(RetryPolicy{MaxAttempts: 9}, &slept))
		if err := r.WriteCells("a", []int64{0}, [][]byte{{1}}); err != nil {
			t.Fatal(err)
		}
		return slept
	}
	a, b := run(), run()
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Errorf("two unseeded clients drew identical schedules: %v", a)
	}
}

func TestDefaultRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{ErrUnknownObject, false},
		{fmt.Errorf("wrap: %w", ErrObjectExists), false},
		{ErrOutOfRange, false},
		{ErrBadPath, false},
		{ErrTransient, true},
		{fmt.Errorf("transport: %w: dial refused", ErrUnavailable), true},
		{errors.New("some application error"), false},
	}
	for _, c := range cases {
		if got := DefaultRetryable(c.err); got != c.want {
			t.Errorf("DefaultRetryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestRetryOverFaults: the two layers compose — a fault injector at 30%
// under a retry layer yields a fully reliable service.
func TestRetryOverFaults(t *testing.T) {
	faulty := WithFaults(NewServer(), FaultConfig{Seed: 5, ErrorRate: 0.3})
	r := WithRetry(faulty, fastPolicy(RetryPolicy{MaxAttempts: 20}, nil))
	if err := r.CreateArray("a", 16); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := r.WriteCells("a", []int64{int64(i % 16)}, [][]byte{{byte(i)}}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		got, err := r.ReadCells("a", []int64{int64(i % 16)})
		if err != nil || got[0][0] != byte(i) {
			t.Fatalf("read %d = %v, %v", i, got, err)
		}
	}
	st, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.FaultsInjected == 0 || st.Retries == 0 {
		t.Errorf("counters not surfaced: %+v", st)
	}
	if st.Retries < st.FaultsInjected {
		t.Errorf("retries (%d) < injected faults (%d): some fault was never retried", st.Retries, st.FaultsInjected)
	}
}
