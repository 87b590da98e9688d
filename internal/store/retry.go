package store

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"syscall"
	"time"

	"github.com/oblivfd/oblivfd/internal/telemetry"
)

// RetryPolicy parameterizes WithRetry. The zero value of any field selects
// the default noted on it.
//
// The schedule is "full jitter": the delay before retry n is drawn uniformly
// from [0, ceiling(n)], where the ceiling starts at InitialBackoff and
// doubles per retry up to MaxBackoff. That is the schedule that best
// decorrelates retry storms: after a failover or a burst of ErrOverloaded
// shedding every client's clock restarts at the same instant, and full
// jitter spreads them across the whole window. Errors are classified by
// DefaultRetryable.
type RetryPolicy struct {
	// MaxAttempts bounds the tries per call, including the first
	// (default 5); for a Batch, the tries in a row that get no piece of it
	// through (see RetryService.batch).
	MaxAttempts int
	// InitialBackoff is the ceiling of the delay before the first retry
	// (default 5ms); each further retry doubles it up to MaxBackoff.
	InitialBackoff time.Duration
	// MaxBackoff caps the doubling (default 1s).
	MaxBackoff time.Duration
	// Seed fixes the jitter schedule for reproducible tests. 0 (the
	// default) seeds from the process-global generator, so independent
	// clients draw independent schedules — the whole point of jitter.
	Seed int64
	// Metrics, when set, backs the retry counter with the shared registry
	// series oblivfd_retries_total instead of a per-instance counter.
	Metrics *telemetry.Registry

	// sleep is a test hook; nil means time.Sleep.
	sleep func(time.Duration)
}

// DefaultRetryable reports whether an error is worth retrying: transient
// failures, connection-level failures, and load shedding are; the store's
// semantic errors (unknown object, exists, out of range, bad path) are not,
// because repeating the identical request cannot change a semantic verdict.
func DefaultRetryable(err error) bool {
	if err == nil {
		return false
	}
	switch {
	case errors.Is(err, ErrUnknownObject), errors.Is(err, ErrObjectExists),
		errors.Is(err, ErrOutOfRange), errors.Is(err, ErrBadPath):
		return false
	case errors.Is(err, ErrUnauthorized):
		// Fatal: the handshake was refused on its merits (bad token or
		// malformed database name); re-presenting the same credentials
		// cannot change the verdict.
		return false
	case errors.Is(err, ErrIntegrity),
		errors.Is(err, ErrServerKilled), errors.Is(err, ErrNoSuchEpoch):
		// Fatal: failed verification (which covers ErrCorruptSnapshot and
		// ErrCorruptWAL — both match ErrIntegrity), corruption, and a dead
		// process cannot be retried away — recovery is an operator action,
		// not a request-level one. Re-reading a tampered or rotted block
		// returns the same wrong bytes.
		return false
	case errors.Is(err, ErrDiskFull):
		// Degraded read-only mode: the server applied nothing durable and
		// shed the write for lack of disk space. The condition clears when
		// space frees (compaction, pruning, operator action), so backing
		// off and retrying is correct — unlike ErrIntegrity, nothing is
		// wrong with the data.
		return true
	case errors.Is(err, ErrOverloaded):
		// Load shedding: the server refused the work before executing it,
		// so a retry after backoff is exactly what admission control wants
		// the client to do.
		return true
	case errors.Is(err, ErrTransient), errors.Is(err, ErrUnavailable):
		return true
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, syscall.ECONNRESET), errors.Is(err, syscall.EPIPE),
		errors.Is(err, syscall.ECONNREFUSED):
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// RetryService is a Service decorator that re-issues failed calls with
// jittered exponential backoff. It is the one layer of the stack that sends
// a call twice: the TCP client, the pool and the failover pool each send a
// call once and answer a lost connection or server with the retryable
// ErrUnavailable.
//
// Protocol safety: every write in the Service interface is idempotent — it
// stores the exact ciphertexts carried by the request, so applying a write
// twice leaves the same state as applying it once. Creates and deletes are
// not idempotent at the server, but a retried create that answers "already
// exists" (or a retried delete answering "unknown object") after a
// transient failure can only mean the earlier attempt applied — so the
// retry layer reconciles those verdicts to success (Kind.Applied). That
// reasoning is scoped to the session's own database namespace: on a
// multi-tenant server every object name a session touches is prefixed with
// its database (see Namespaced), so no other tenant can create or delete the
// objects this client names, and within one namespace there is still a single
// writer. Two clients sharing one database namespace would break the
// reconciliation, which is why the transport binds each session to exactly
// one database and documents one-writer-per-database as the deployment
// contract.
//
// Leakage note: a retried access appears to the persistent adversary as one
// extra access to the same object with fresh ciphertexts. Since every
// protocol access is already re-encrypted and its position is independent
// of the data (the obliviousness invariant), a duplicate is
// indistinguishable from the protocol simply being one access longer; the
// adversary additionally learns that a fault occurred and when, which is a
// property of the network, not of the database. The leakage profile
// L(DB) = {Size(DB), FD(DB)} is unchanged.
type RetryService struct {
	Adapter
	svc    Service
	policy RetryPolicy

	mu  sync.Mutex
	rng *rand.Rand

	// retries is registry-backed (shared) when policy.Metrics is set,
	// standalone otherwise; shared records which.
	retries *telemetry.Counter
	shared  bool
}

// WithRetry wraps a Service with the given retry policy.
func WithRetry(svc Service, policy RetryPolicy) *RetryService {
	if policy.MaxAttempts <= 0 {
		policy.MaxAttempts = 5
	}
	if policy.InitialBackoff <= 0 {
		policy.InitialBackoff = 5 * time.Millisecond
	}
	if policy.MaxBackoff <= 0 {
		policy.MaxBackoff = time.Second
	}
	if policy.sleep == nil {
		policy.sleep = time.Sleep
	}
	seed := policy.Seed
	if seed == 0 {
		seed = rand.Int63() // independent schedule per client (see Seed)
	}
	rs := &RetryService{svc: svc, policy: policy, rng: rand.New(rand.NewSource(seed))}
	rs.Adapter = Adapt(rs.handle)
	if policy.Metrics != nil {
		rs.retries = policy.Metrics.Counter("oblivfd_retries_total")
		rs.shared = true
	} else {
		rs.retries = telemetry.NewCounter()
	}
	return rs
}

// Retries returns the number of re-attempts performed so far. With a
// Metrics registry configured this is the stack-wide total.
func (r *RetryService) Retries() int64 { return r.retries.Value() }

// ceiling is the largest delay before retry number n (1-based):
// InitialBackoff doubled n-1 times, capped at MaxBackoff.
func (p *RetryPolicy) ceiling(n int) time.Duration {
	c := p.InitialBackoff
	for i := 1; i < n && c < p.MaxBackoff; i++ {
		c *= 2
	}
	return min(c, p.MaxBackoff)
}

// backoff draws the delay before retry number n uniformly from
// [0, ceiling(n)].
func (r *RetryService) backoff(n int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(r.rng.Float64() * float64(r.policy.ceiling(n)))
}

// handle runs one logical call: the op is issued until it succeeds, fails on
// its merits, or the policy gives up, and a Stats answer carries the retry
// count. A Batch goes through batch.
func (r *RetryService) handle(op *Op, res *Result) error {
	if op.Kind == KindBatch {
		return r.batch(op, res)
	}
	for attempt := 1; ; attempt++ {
		err := Invoke(r.svc, op, res)
		if err == nil || attempt > 1 && op.Kind.Applied(err) {
			break
		}
		if err := r.again(op.Kind, attempt, err); err != nil {
			return err
		}
	}
	if op.Kind == KindStats {
		// With a shared registry counter the value is the stack-wide total, so
		// it replaces rather than accumulates (see FaultService.handle).
		if r.shared {
			res.Stats.Retries = r.retries.Value()
		} else {
			res.Stats.Retries += r.retries.Value()
		}
	}
	return nil
}

// again follows failed try number attempt of a call of the given kind: it
// returns the error to give up with, or nil once it has waited out the
// backoff before the next try.
func (r *RetryService) again(kind Kind, attempt int, err error) error {
	if !DefaultRetryable(err) {
		return err
	}
	if attempt >= r.policy.MaxAttempts {
		return fmt.Errorf("store: %v failed after %d attempts: %w", kind, attempt, err)
	}
	r.policy.sleep(r.backoff(attempt))
	r.retries.Inc()
	return nil
}

// batch runs a Batch. Every op in it but a create is a read, a write
// carrying its exact ciphertexts or a reveal of a public value, so
// re-applying a partially applied batch converges to the same state as one
// clean pass, and so does applying its ops in consecutive pieces. The first
// try sends it whole; each failed try is followed by one that starts at the
// first op not yet answered and carries half as many ops as the one that
// failed. A re-sent piece also ends before any create but its first, which
// is the one op it may find already applied: a create leading a re-sent
// piece that answers Kind.Applied was applied by a try that failed later
// (the single-writer inference of a plain re-sent create, see RetryService),
// so it counts as done and the batch goes on after it. Faults strike ops —
// the injector of FaultService draws one per op — so a batch of k ops gets
// through whole with only (1 − p)^k, but its pieces shrink until they get
// through: a round of a few hundred ops at p = 2 % needs a handful of tries,
// not thousands. The attempt count runs from the last piece that got
// through, so MaxAttempts bounds the tries in a row that make no progress,
// as it bounds a single op's. The server sees the batch's ops in their
// order, some of them again, framed by a schedule that depends only on the
// batch's ops' kinds and length and on when faults struck.
func (r *RetryService) batch(op *Op, res *Result) error {
	err := Invoke(r.svc, op, res)
	if err == nil {
		return nil
	}
	piece, size := *op, len(op.Ops)
	answers := make([][][]byte, len(op.Ops))
	for at, attempt := 0, 1; ; {
		if err != nil {
			if err := r.again(KindBatch, attempt, err); err != nil {
				return err
			}
			attempt, size = attempt+1, (size+1)/2
		}
		end := min(at+size, len(op.Ops))
		for i := at + 1; i < end; i++ {
			if op.Ops[i].Kind().info().applied != nil { // a create
				end = i
				break
			}
		}
		piece.Ops = op.Ops[at:end]
		switch err = Invoke(r.svc, &piece, res); {
		case err == nil:
			copy(answers[at:], res.Batch)
			at = end
		case op.Ops[at].Kind().Applied(err):
			at, err = at+1, nil
		default:
			continue
		}
		if at == len(op.Ops) {
			res.Batch = answers
			return nil
		}
		attempt = 1
	}
}
