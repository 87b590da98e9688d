package store

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/oblivfd/oblivfd/internal/telemetry"
)

// Session errors.
var (
	// ErrOverloaded is load shedding: the server refused to take the work
	// right now — admission budget exhausted, rate limit hit, or drain in
	// progress. The request did not execute, so it is safe and expected to
	// retry with backoff; DefaultRetryable classifies it as retryable.
	ErrOverloaded = errors.New("store: server overloaded")
	// ErrUnauthorized is a failed session handshake: bad token or invalid
	// database name. Retrying the identical handshake cannot change the
	// verdict, so it is fatal (DefaultRetryable returns false).
	ErrUnauthorized = errors.New("store: session unauthorized")
)

// SessionLimits configures admission control for a multi-tenant server. The
// zero value imposes no limits at all — every field is opt-in, so a server
// built without explicit limits behaves exactly like the single-tenant one.
type SessionLimits struct {
	// MaxSessions caps concurrently open sessions (0 = unlimited). When the
	// cap is reached, opening a new session first evicts sessions idle
	// longer than IdleTimeout; if none can be evicted the handshake is
	// refused with ErrOverloaded.
	MaxSessions int
	// MaxInflight caps requests executing across all sessions
	// (0 = unlimited); excess requests are shed with ErrOverloaded.
	MaxInflight int
	// RatePerSec is a per-session token-bucket rate limit in requests per
	// second (0 = unlimited). The bucket holds one second of requests, at
	// least one.
	RatePerSec float64
	// IdleTimeout makes sessions with no in-flight requests evictable after
	// this much inactivity (0 = never evict).
	IdleTimeout time.Duration
	// Token, when non-empty, is the shared secret every handshake must
	// present; a mismatch is ErrUnauthorized.
	Token string
}

// Session is one authenticated client binding to a database namespace. The
// transport server opens one per connection handshake; every subsequent
// request on that connection passes through Begin for admission.
type Session struct {
	ID int64
	DB string

	reg        *SessionRegistry
	inflight   int
	lastActive time.Time
	tokens     float64
	lastRefill time.Time
	closed     bool
	onEvict    func()
}

// SessionRegistry tracks every live session and enforces SessionLimits. It
// is the single admission point: Open gates handshakes, Begin gates
// requests, Drain flips the registry into shutdown mode where existing
// sessions finish and new ones are refused.
type SessionRegistry struct {
	limits SessionLimits

	mu       sync.Mutex
	sessions map[int64]*Session
	nextID   int64
	draining bool
	inflight int64

	shed     int64 // requests refused by admission control
	rejected int64 // handshakes refused (auth, capacity, drain)
	evicted  int64 // idle sessions reclaimed

	now func() time.Time // test hook; nil means time.Now

	// Registry-backed handles; nil-safe when no registry is attached.
	activeGauge   *telemetry.Gauge
	inflightGauge *telemetry.Gauge
	openedCtr     *telemetry.Counter
	shedCtr       *telemetry.Counter
	rejectedCtr   *telemetry.Counter
	evictedCtr    *telemetry.Counter
}

// NewSessionRegistry builds a registry with the given limits. A telemetry
// registry, when non-nil, backs the session gauges and shed counters
// (oblivfd_sessions_active, oblivfd_sessions_inflight,
// oblivfd_sessions_opened_total, oblivfd_requests_shed_total,
// oblivfd_sessions_rejected_total, oblivfd_sessions_evicted_total).
func NewSessionRegistry(limits SessionLimits, reg *telemetry.Registry) *SessionRegistry {
	return &SessionRegistry{
		limits:        limits,
		sessions:      make(map[int64]*Session),
		nextID:        1,
		activeGauge:   reg.Gauge("oblivfd_sessions_active"),
		inflightGauge: reg.Gauge("oblivfd_sessions_inflight"),
		openedCtr:     reg.Counter("oblivfd_sessions_opened_total"),
		shedCtr:       reg.Counter("oblivfd_requests_shed_total"),
		rejectedCtr:   reg.Counter("oblivfd_sessions_rejected_total"),
		evictedCtr:    reg.Counter("oblivfd_sessions_evicted_total"),
	}
}

// Limits returns the configured limits.
func (r *SessionRegistry) Limits() SessionLimits { return r.limits }

func (r *SessionRegistry) clock() time.Time {
	if r.now != nil {
		return r.now()
	}
	return time.Now()
}

// Open authenticates a handshake and admits a session bound to the given
// database namespace (db may be "" for the root namespace). Failures are
// ErrUnauthorized (bad token or malformed database name — fatal) or
// ErrOverloaded (capacity or drain — retryable).
func (r *SessionRegistry) Open(db, token string) (*Session, error) {
	if db != "" && !ValidDBName(db) {
		r.bumpRejected()
		return nil, fmt.Errorf("%w: invalid database name %q", ErrUnauthorized, db)
	}
	if r.limits.Token != "" && token != r.limits.Token {
		r.bumpRejected()
		return nil, fmt.Errorf("%w: bad session token", ErrUnauthorized)
	}
	r.mu.Lock()
	if r.draining {
		r.rejected++
		r.mu.Unlock()
		r.rejectedCtr.Inc()
		return nil, fmt.Errorf("%w: server draining, refusing new sessions", ErrOverloaded)
	}
	var evicted []*Session
	if r.limits.MaxSessions > 0 && len(r.sessions) >= r.limits.MaxSessions {
		evicted = r.sweepLocked(r.clock())
	}
	if r.limits.MaxSessions > 0 && len(r.sessions) >= r.limits.MaxSessions {
		r.rejected++
		r.mu.Unlock()
		r.notifyEvicted(evicted)
		r.rejectedCtr.Inc()
		return nil, fmt.Errorf("%w: %d sessions active (max %d)", ErrOverloaded, r.limits.MaxSessions, r.limits.MaxSessions)
	}
	s := &Session{
		ID:         r.nextID,
		DB:         db,
		reg:        r,
		lastActive: r.clock(),
		lastRefill: r.clock(),
		tokens:     r.burst(),
	}
	r.nextID++
	r.sessions[s.ID] = s
	r.mu.Unlock()
	r.notifyEvicted(evicted)
	r.activeGauge.Add(1)
	r.openedCtr.Inc()
	return s, nil
}

func (r *SessionRegistry) bumpRejected() {
	r.mu.Lock()
	r.rejected++
	r.mu.Unlock()
	r.rejectedCtr.Inc()
}

// burst returns the token-bucket depth implied by the limits.
func (r *SessionRegistry) burst() float64 {
	if r.limits.RatePerSec <= 0 {
		return 0
	}
	b := r.limits.RatePerSec
	if b < 1 {
		b = 1
	}
	return b
}

// sweepLocked evicts sessions with no in-flight work that have been idle
// past IdleTimeout, returning them so the caller can run their eviction
// callbacks outside the lock. Callers hold r.mu.
func (r *SessionRegistry) sweepLocked(now time.Time) []*Session {
	if r.limits.IdleTimeout <= 0 {
		return nil
	}
	var out []*Session
	for id, s := range r.sessions {
		if s.inflight == 0 && now.Sub(s.lastActive) >= r.limits.IdleTimeout {
			s.closed = true
			delete(r.sessions, id)
			r.evicted++
			out = append(out, s)
		}
	}
	return out
}

func (r *SessionRegistry) notifyEvicted(evicted []*Session) {
	for _, s := range evicted {
		r.activeGauge.Add(-1)
		r.evictedCtr.Inc()
		if s.onEvict != nil {
			s.onEvict()
		}
	}
}

// SweepIdle evicts idle sessions immediately (the lazy sweep in Open only
// runs at capacity); the transport server calls it periodically so an idle
// tenant's connection is reclaimed even on an uncrowded server. Returns the
// number of sessions evicted.
func (r *SessionRegistry) SweepIdle() int {
	r.mu.Lock()
	evicted := r.sweepLocked(r.clock())
	r.mu.Unlock()
	r.notifyEvicted(evicted)
	return len(evicted)
}

// Drain refuses all future handshakes while letting existing sessions keep
// issuing requests; it returns the number of sessions still active. The
// transport server calls it on SIGTERM so the shutdown is fair: tenants
// mid-discovery finish, newcomers get a retryable ErrOverloaded and find
// another replica.
func (r *SessionRegistry) Drain() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.draining = true
	return len(r.sessions)
}

// Draining reports whether Drain was called.
func (r *SessionRegistry) Draining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.draining
}

// Active returns the number of open sessions.
func (r *SessionRegistry) Active() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// Inflight returns the number of requests currently admitted and executing.
func (r *SessionRegistry) Inflight() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inflight
}

// Shed returns how many requests admission control has refused.
func (r *SessionRegistry) Shed() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.shed
}

// Rejected returns how many handshakes were refused.
func (r *SessionRegistry) Rejected() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rejected
}

// Evicted returns how many idle sessions were reclaimed.
func (r *SessionRegistry) Evicted() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evicted
}

// OnEvict registers a callback run when the registry evicts this session
// (idle sweep). The transport server uses it to close the underlying
// connection, which the client answers on its next call by re-dialing and
// re-handshaking.
func (s *Session) OnEvict(fn func()) {
	s.reg.mu.Lock()
	s.onEvict = fn
	s.reg.mu.Unlock()
}

// Begin admits one request into the session. On success it returns a release
// function the caller must run when the request completes; on refusal it
// returns ErrOverloaded (shed — the request never executed).
func (s *Session) Begin() (release func(), err error) {
	r := s.reg
	now := r.clock()
	r.mu.Lock()
	switch {
	case s.closed:
		r.shed++
		err = fmt.Errorf("%w: session evicted", ErrOverloaded)
	case r.limits.MaxInflight > 0 && r.inflight >= int64(r.limits.MaxInflight):
		r.shed++
		err = fmt.Errorf("%w: %d requests in flight (max %d)", ErrOverloaded, r.inflight, r.limits.MaxInflight)
	case !s.takeTokenLocked(now):
		r.shed++
		err = fmt.Errorf("%w: session %d rate limited (%.3g req/s)", ErrOverloaded, s.ID, r.limits.RatePerSec)
	}
	if err != nil {
		r.mu.Unlock()
		r.shedCtr.Inc()
		return nil, err
	}
	r.inflight++
	s.inflight++
	s.lastActive = now
	r.mu.Unlock()
	r.inflightGauge.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			r.mu.Lock()
			r.inflight--
			s.inflight--
			s.lastActive = r.clock()
			r.mu.Unlock()
			r.inflightGauge.Add(-1)
		})
	}, nil
}

// takeTokenLocked consumes one token from the session's bucket, refilling by
// elapsed wall time first. Callers hold r.mu.
func (s *Session) takeTokenLocked(now time.Time) bool {
	rate := s.reg.limits.RatePerSec
	if rate <= 0 {
		return true
	}
	elapsed := now.Sub(s.lastRefill).Seconds()
	if elapsed > 0 {
		s.tokens += elapsed * rate
		if burst := s.reg.burst(); s.tokens > burst {
			s.tokens = burst
		}
		s.lastRefill = now
	}
	if s.tokens < 1 {
		return false
	}
	s.tokens--
	return true
}

// Close removes the session from the registry. The transport server calls it
// when the connection ends; closing twice (or closing an evicted session) is
// a no-op.
func (s *Session) Close() {
	r := s.reg
	r.mu.Lock()
	if s.closed {
		r.mu.Unlock()
		return
	}
	s.closed = true
	delete(r.sessions, s.ID)
	r.mu.Unlock()
	r.activeGauge.Add(-1)
}
