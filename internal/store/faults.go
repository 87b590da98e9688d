package store

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/oblivfd/oblivfd/internal/telemetry"
)

// FaultConfig parameterizes WithFaults. All probabilities are per call.
type FaultConfig struct {
	// Seed fixes the fault schedule: two services built with the same seed
	// and driven by the same call sequence inject exactly the same faults.
	Seed int64
	// ErrorRate is the probability a call fails with ErrTransient.
	ErrorRate float64
	// SpikeRate is the probability a call is delayed by Spike, modeling a
	// latency spike (a congested link, a GC pause on the server).
	SpikeRate float64
	// Spike is the extra delay applied on a latency spike.
	Spike time.Duration
	// CorruptRate is the probability that a successful read's payload
	// (ReadCells or ReadPath) is corrupted — a seeded bit flip or block
	// swap, per CorruptMode — before it reaches the client. This models a
	// Byzantine server or bit rot; unlike ErrorRate faults it produces no
	// error at the injection site, only wrong bytes the client's integrity
	// layer must catch.
	CorruptRate float64
	// CorruptAfterReads, when > 0, corrupts exactly the Nth successful
	// read (1-based, counting ReadCells and ReadPath together). One-shot
	// and fully deterministic — the tamper harness uses it to guarantee
	// exactly one corruption per run at a seeded offset.
	CorruptAfterReads int64
	// CorruptMode selects the corruption shape (bit flip or block swap).
	CorruptMode CorruptMode
	// Metrics, when set, backs the injected-fault counters with the shared
	// registry series oblivfd_faults_injected_total /
	// oblivfd_fault_spikes_total / oblivfd_corruptions_injected_total
	// instead of per-instance counters, making the registry the single
	// source of truth for the whole stack.
	Metrics *telemetry.Registry
}

// CorruptMode selects how an injected corruption mangles a read's payload.
type CorruptMode int

const (
	// CorruptFlip flips one random bit of one returned block.
	CorruptFlip CorruptMode = iota
	// CorruptSwap swaps two returned blocks (positions within the batch);
	// a single-block batch degrades to a bit flip so the corruption is
	// never silently skipped.
	CorruptSwap
)

// FaultService is a Service decorator that injects transient faults on a
// deterministic, seeded schedule. It mirrors WithLatency: protocol code
// holds it as a plain Service while tests and the chaos harness observe the
// injected-fault counters.
//
// Failures come in two shapes, chosen by the schedule:
//
//   - fail-before: the call errors without reaching the backend, like a
//     request lost on the way to the server;
//   - fail-after: the backend applies the operation and then the call
//     errors, like a response lost on the way back. This is the case that
//     exercises idempotent retries. Which operations may be failed this
//     way is the failAfter column of the kind table (op.go).
type FaultService struct {
	Adapter
	svc Service
	cfg FaultConfig

	mu    sync.Mutex
	rng   *rand.Rand
	seq   int64 // calls scheduled so far
	crng  *rand.Rand
	reads int64 // successful reads observed (corruption schedule index)

	// errors and spikes are registry-backed (shared across the stack) when
	// cfg.Metrics is set, standalone otherwise; shared records which.
	errors      *telemetry.Counter
	spikes      *telemetry.Counter
	corruptions *telemetry.Counter
	shared      bool
}

// WithFaults wraps a Service with seeded fault injection. A zero-rate
// config returns a wrapper that never faults (useful for uniform plumbing).
func WithFaults(svc Service, cfg FaultConfig) *FaultService {
	// Corruption draws from its own seeded stream so enabling it never
	// shifts the transient-fault schedule: two services with the same seed
	// inject the same transient faults whether or not corruption is on.
	f := &FaultService{
		svc:  svc,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		crng: rand.New(rand.NewSource(cfg.Seed ^ 0x1e35a7bd1e35a7bd)),
	}
	f.Adapter = Adapt(f.handle)
	if cfg.Metrics != nil {
		f.errors = cfg.Metrics.Counter("oblivfd_faults_injected_total")
		f.spikes = cfg.Metrics.Counter("oblivfd_fault_spikes_total")
		f.corruptions = cfg.Metrics.Counter("oblivfd_corruptions_injected_total")
		f.shared = true
	} else {
		f.errors = telemetry.NewCounter()
		f.spikes = telemetry.NewCounter()
		f.corruptions = telemetry.NewCounter()
	}
	return f
}

// Injected returns the number of transient errors injected so far. With a
// Metrics registry configured this is the stack-wide total, not just this
// layer's.
func (f *FaultService) Injected() int64 { return f.errors.Value() }

// Spikes returns the number of latency spikes injected so far.
func (f *FaultService) Spikes() int64 { return f.spikes.Value() }

// Corruptions returns the number of payload corruptions injected so far.
func (f *FaultService) Corruptions() int64 { return f.corruptions.Value() }

// maybeCorrupt applies the corruption schedule to a successful read's
// payload. Affected blocks are copied before mutation so an in-process
// backend's storage is never damaged — the corruption exists only on the
// "wire" to this client, exactly like a TCP-level bit flip. One variate is
// drawn from the corruption stream per read when CorruptRate is set, so the
// schedule is a pure function of the seed and the read index.
func (f *FaultService) maybeCorrupt(cts [][]byte) [][]byte {
	if f.cfg.CorruptRate <= 0 && f.cfg.CorruptAfterReads <= 0 {
		return cts
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reads++
	hit := f.cfg.CorruptAfterReads > 0 && f.reads == f.cfg.CorruptAfterReads
	if f.cfg.CorruptRate > 0 && f.crng.Float64() < f.cfg.CorruptRate {
		hit = true
	}
	if !hit {
		return cts
	}
	var nonEmpty []int
	for i, ct := range cts {
		if len(ct) > 0 {
			nonEmpty = append(nonEmpty, i)
		}
	}
	if len(nonEmpty) == 0 {
		return cts
	}
	out := make([][]byte, len(cts))
	copy(out, cts)
	if f.cfg.CorruptMode == CorruptSwap && len(nonEmpty) >= 2 {
		i := nonEmpty[f.crng.Intn(len(nonEmpty))]
		j := i
		for j == i {
			j = nonEmpty[f.crng.Intn(len(nonEmpty))]
		}
		out[i], out[j] = out[j], out[i]
	} else {
		i := nonEmpty[f.crng.Intn(len(nonEmpty))]
		b := append([]byte(nil), out[i]...)
		b[f.crng.Intn(len(b))] ^= 1 << uint(f.crng.Intn(8))
		out[i] = b
	}
	f.corruptions.Inc()
	return out
}

// decision is one call's slot in the fault schedule.
type decision struct {
	seq   int64
	spike bool
	fail  bool
	after bool
}

// next draws one decision. Exactly three variates are consumed per call
// regardless of the outcome, so the schedule is a pure function of the seed
// and the call index — concurrency changes which caller gets which slot,
// never the slots themselves.
func (f *FaultService) next(idempotent bool) decision {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := decision{seq: f.seq}
	f.seq++
	d.spike = f.rng.Float64() < f.cfg.SpikeRate
	d.fail = f.rng.Float64() < f.cfg.ErrorRate
	d.after = f.rng.Intn(2) == 1 && idempotent
	return d
}

// handle runs one operation under the schedule; on a fail-after the
// backend's results are discarded with the injected error. Two kinds are
// special. Stats is exempt from injection so that monitoring stays reliable
// even under heavy chaos, and reports the injected-fault count. A Batch is
// split here, each op drawing its own slot exactly as if issued
// alone — the schedule is indexed by those operations, not by how a caller
// grouped them. Everything else follows its kind's failAfter row; a Reveal failed
// after applying leaves a duplicate log entry on retry, which carries the
// same already-public value, and re-marking an epoch is idempotent (the
// durable backend writes a fresh snapshot of the same state).
func (f *FaultService) handle(op *Op, res *Result) (err error) {
	switch op.Kind {
	case KindStats:
		if err := Invoke(f.svc, op, res); err != nil {
			return err
		}
		// With a shared registry counter the value is the stack-wide total, so
		// it replaces rather than accumulates — stacking two registry-backed
		// fault layers must not double-count. Faults are a property of the
		// shared backend, so a tenant's namespaced Stats reports the same.
		if f.shared {
			res.Stats.FaultsInjected = f.errors.Value()
		} else {
			res.Stats.FaultsInjected += f.errors.Value()
		}
		return nil
	case KindBatch:
		res.Batch, err = eachBatchOp(op, f.handle)
		return err
	}
	d := f.next(op.Kind.info().failAfter)
	if d.spike && f.cfg.Spike > 0 {
		f.spikes.Inc()
		time.Sleep(f.cfg.Spike)
	}
	if d.fail && !d.after {
		f.errors.Inc()
		return fmt.Errorf("%w: injected before %v (call %d)", ErrTransient, op.Kind, d.seq)
	}
	err = Invoke(f.svc, op, res)
	if d.fail && d.after {
		f.errors.Inc()
		return fmt.Errorf("%w: injected after %v (call %d)", ErrTransient, op.Kind, d.seq)
	}
	if err == nil && (op.Kind == KindReadCells || op.Kind == KindReadPath) {
		res.Cts = f.maybeCorrupt(res.Cts)
	}
	return err
}
