package store

import (
	"errors"
	"testing"
	"time"
)

// fakeClock drives a registry's time for deterministic idle/rate tests.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestSessionTokenAuth(t *testing.T) {
	r := NewSessionRegistry(SessionLimits{Token: "secret"}, nil)
	if _, err := r.Open("tenant", "wrong"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("bad token: err = %v, want ErrUnauthorized", err)
	}
	if _, err := r.Open("tenant", ""); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("missing token: err = %v, want ErrUnauthorized", err)
	}
	s, err := r.Open("tenant", "secret")
	if err != nil {
		t.Fatalf("good token refused: %v", err)
	}
	s.Close()
	if got := r.Rejected(); got != 2 {
		t.Errorf("Rejected() = %d, want 2", got)
	}
}

func TestSessionInvalidDBName(t *testing.T) {
	r := NewSessionRegistry(SessionLimits{}, nil)
	for _, db := range []string{"a/b", "a b", "\x00", string(make([]byte, 200))} {
		if _, err := r.Open(db, ""); !errors.Is(err, ErrUnauthorized) {
			t.Errorf("Open(%q): err = %v, want ErrUnauthorized", db, err)
		}
	}
	// The root namespace ("") and plain names are fine.
	for _, db := range []string{"", "tenant-1", "a.b_c"} {
		s, err := r.Open(db, "")
		if err != nil {
			t.Errorf("Open(%q): %v", db, err)
			continue
		}
		s.Close()
	}
}

func TestSessionMaxSessions(t *testing.T) {
	r := NewSessionRegistry(SessionLimits{MaxSessions: 2}, nil)
	a, err := r.Open("a", "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Open("b", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open("c", ""); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third session: err = %v, want ErrOverloaded", err)
	}
	a.Close()
	c, err := r.Open("c", "")
	if err != nil {
		t.Fatalf("after a slot freed: %v", err)
	}
	b.Close()
	c.Close()
	if got := r.Active(); got != 0 {
		t.Errorf("Active() = %d after closing all, want 0", got)
	}
}

// TestSessionIdleEvictionAtCapacity: a full registry reclaims idle sessions
// to admit a newcomer, running the eviction callback (the transport server
// closes the evicted connection there).
func TestSessionIdleEvictionAtCapacity(t *testing.T) {
	clk := newFakeClock()
	r := NewSessionRegistry(SessionLimits{MaxSessions: 1, IdleTimeout: time.Minute}, nil)
	r.now = clk.now
	a, err := r.Open("a", "")
	if err != nil {
		t.Fatal(err)
	}
	evicted := false
	a.OnEvict(func() { evicted = true })

	// Not idle long enough: the newcomer is refused.
	clk.advance(30 * time.Second)
	if _, err := r.Open("b", ""); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("capacity with fresh session: err = %v, want ErrOverloaded", err)
	}
	// Past the idle timeout: a is evicted to make room.
	clk.advance(time.Minute)
	b, err := r.Open("b", "")
	if err != nil {
		t.Fatalf("capacity with evictable session: %v", err)
	}
	if !evicted {
		t.Error("eviction callback did not run")
	}
	if got := r.Evicted(); got != 1 {
		t.Errorf("Evicted() = %d, want 1", got)
	}
	// An evicted session's Begin is shed, not executed.
	if _, err := a.Begin(); !errors.Is(err, ErrOverloaded) {
		t.Errorf("Begin on evicted session: err = %v, want ErrOverloaded", err)
	}
	b.Close()
}

// TestSessionIdleEvictionSkipsInflight: a session with work in flight is
// never evicted, no matter how stale lastActive looks.
func TestSessionIdleEvictionSkipsInflight(t *testing.T) {
	clk := newFakeClock()
	r := NewSessionRegistry(SessionLimits{MaxSessions: 1, IdleTimeout: time.Minute}, nil)
	r.now = clk.now
	a, err := r.Open("a", "")
	if err != nil {
		t.Fatal(err)
	}
	release, err := a.Begin()
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Hour)
	if n := r.SweepIdle(); n != 0 {
		t.Fatalf("SweepIdle evicted %d sessions with in-flight work", n)
	}
	release()
	clk.advance(time.Hour)
	if n := r.SweepIdle(); n != 1 {
		t.Fatalf("SweepIdle after release = %d, want 1", n)
	}
}

func TestSessionInflightBudgets(t *testing.T) {
	r := NewSessionRegistry(SessionLimits{MaxInflight: 2}, nil)
	s, err := r.Open("a", "")
	if err != nil {
		t.Fatal(err)
	}
	rel1, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Begin(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over budget: err = %v, want ErrOverloaded", err)
	}
	if got := r.Shed(); got != 1 {
		t.Errorf("Shed() = %d, want 1", got)
	}
	rel1()
	rel1() // release is idempotent; must not free a second slot
	rel3, err := s.Begin()
	if err != nil {
		t.Fatalf("after release: %v", err)
	}
	if _, err := s.Begin(); !errors.Is(err, ErrOverloaded) {
		t.Fatal("double release freed two slots")
	}
	rel2()
	rel3()
	if got := r.Inflight(); got != 0 {
		t.Errorf("Inflight() = %d after all releases, want 0", got)
	}
}

func TestSessionRateLimit(t *testing.T) {
	clk := newFakeClock()
	r := NewSessionRegistry(SessionLimits{RatePerSec: 2}, nil)
	r.now = clk.now
	s, err := r.Open("a", "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		release, err := s.Begin()
		if err != nil {
			t.Fatalf("request %d within burst: %v", i, err)
		}
		release()
	}
	if _, err := s.Begin(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("burst exhausted: err = %v, want ErrOverloaded", err)
	}
	// 500ms at 2 req/s refills one token.
	clk.advance(500 * time.Millisecond)
	release, err := s.Begin()
	if err != nil {
		t.Fatalf("after refill: %v", err)
	}
	release()
	// The bucket never exceeds the burst depth: a long sleep buys at most 2.
	clk.advance(time.Hour)
	for i := 0; i < 2; i++ {
		release, err := s.Begin()
		if err != nil {
			t.Fatalf("request %d after refill-to-burst: %v", i, err)
		}
		release()
	}
	if _, err := s.Begin(); !errors.Is(err, ErrOverloaded) {
		t.Error("token bucket exceeded its burst depth")
	}
}

func TestSessionDrain(t *testing.T) {
	r := NewSessionRegistry(SessionLimits{}, nil)
	s, err := r.Open("a", "")
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Drain(); n != 1 {
		t.Fatalf("Drain() = %d active, want 1", n)
	}
	// New handshakes are refused with the retryable error…
	if _, err := r.Open("b", ""); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("handshake while draining: err = %v, want ErrOverloaded", err)
	}
	// …but the admitted session keeps working (fair drain).
	release, err := s.Begin()
	if err != nil {
		t.Fatalf("admitted session shed during drain: %v", err)
	}
	release()
	s.Close()
	if got := r.Active(); got != 0 {
		t.Errorf("Active() = %d, want 0", got)
	}
}

// TestSessionErrorClassification pins the retry semantics the transport
// relies on: shed work is retryable (it never executed), auth failures are
// not (the verdict cannot change).
func TestSessionErrorClassification(t *testing.T) {
	if !DefaultRetryable(ErrOverloaded) {
		t.Error("ErrOverloaded must be retryable: the request was never executed")
	}
	if DefaultRetryable(ErrUnauthorized) {
		t.Error("ErrUnauthorized must not be retryable")
	}
}

func TestSessionZeroLimitsNoAdmission(t *testing.T) {
	r := NewSessionRegistry(SessionLimits{}, nil)
	var sessions []*Session
	for i := 0; i < 50; i++ {
		s, err := r.Open("t", "")
		if err != nil {
			t.Fatalf("session %d refused under zero limits: %v", i, err)
		}
		sessions = append(sessions, s)
		if _, err := s.Begin(); err != nil {
			t.Fatalf("request %d shed under zero limits: %v", i, err)
		}
	}
	for _, s := range sessions {
		s.Close()
	}
}
