package oram

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
	"github.com/oblivfd/oblivfd/internal/trace"
)

// TestUpdateIndistinguishable: whatever an Update's function finds and
// decides — hit or miss, leave alone, insert, overwrite, remove — the server
// sees the events of a Read, byte for byte.
func TestUpdateIndistinguishable(t *testing.T) {
	keep := func(old []byte, found bool) ([]byte, bool) { return old, found }
	put := func([]byte, bool) ([]byte, bool) { return val(8, 7), true }
	drop := func([]byte, bool) ([]byte, bool) { return nil, false }
	increment := func(old []byte, found bool) ([]byte, bool) {
		if !found {
			return val(8, 1), true
		}
		return val(8, old[7]+1), true
	}
	t.Run("path", func(t *testing.T) {
		shape := func(access func(*ORAM) error) trace.Shape {
			srv := store.NewServer()
			s, err := Setup(srv, crypto.MustNewCipher(crypto.MustNewKey()), "t", Config{
				Capacity: 32, KeyWidth: 16, ValueWidth: 8, Seed: 11,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Write("present", val(8, 1)); err != nil {
				t.Fatal(err)
			}
			srv.Trace().Reset()
			srv.Trace().Enable()
			if err := access(s); err != nil {
				t.Fatal(err)
			}
			return trace.ShapeOf(srv.Trace().Events())
		}
		want := shape(func(s *ORAM) error { _, _, err := s.Read("present"); return err })
		for _, c := range []struct {
			name, key string
			fn        UpdateFunc
		}{
			{"hit, left alone", "present", keep},
			{"miss, left alone", "absent", keep},
			{"insert", "absent", put},
			{"overwrite", "present", put},
			{"remove", "present", drop},
			{"remove a miss", "absent", drop},
			{"count up", "present", increment},
			{"count from nothing", "absent", increment},
		} {
			if got := shape(func(s *ORAM) error { return s.Update(c.key, c.fn) }); !got.Equal(want) {
				t.Errorf("Update (%s) is distinguishable from a Read:\n%s", c.name, want.Diff(got))
			}
		}
	})
}

// TestStoreModel runs a random mix of Update, Read, Write and Remove on a
// store against a map. Update's functions cover what a caller can decide from
// what it is shown: count up from nothing, remove at a threshold, leave alone.
// Then the same as batches through a pipeline (batchModel) — repeats, misses,
// removes and re-inserts of one key in one batch — on a tree of 32 leaves and
// on one of two, where every batch of three or more paths collides on a leaf
// and every two paths share the root.
func TestStoreModel(t *testing.T) {
	for _, c := range []struct {
		name                     string
		capacity, keys, steps, r int
	}{
		{"batched", 24, 24, 300, 16},
		{"batched, 2 leaves", 2, 3, 400, 6},
	} {
		t.Run(c.name, func(t *testing.T) {
			o, err := Setup(store.NewServer(), crypto.MustNewCipher(crypto.MustNewKey()), "t", Config{
				Capacity: c.capacity, KeyWidth: 8, ValueWidth: 4, Seed: 19,
			})
			if err != nil {
				t.Fatal(err)
			}
			batchModel(t, o, c.keys, c.steps, c.r, 23)
		})
	}
	t.Run("path", func(t *testing.T) {
		const capacity = 24
		s, _ := newTestORAM(t, capacity, 4)
		model := make(map[string][]byte)
		rng := rand.New(rand.NewSource(17))
		for step := 0; step < 600; step++ {
			k := fmt.Sprintf("k%d", rng.Intn(capacity))
			want, had := model[k]
			switch rng.Intn(6) {
			case 0:
				v := []byte{byte(step), byte(step >> 8), 0, 1}
				if err := s.Write(k, v); err != nil {
					t.Fatalf("step %d Write: %v", step, err)
				}
				model[k] = v
			case 1:
				v, found, err := s.Read(k)
				if err != nil {
					t.Fatalf("step %d Read: %v", step, err)
				}
				if found != had || !bytes.Equal(v, want) {
					t.Fatalf("step %d: Read(%s) = %v,%v want %v,%v", step, k, v, found, want, had)
				}
			case 2:
				if err := s.Remove(k); err != nil {
					t.Fatalf("step %d Remove: %v", step, err)
				}
				delete(model, k)
			default:
				// A counter in byte 3: start at 1, count up, vanish at 3.
				var saw []byte
				var sawFound bool
				err := s.Update(k, func(old []byte, found bool) ([]byte, bool) {
					saw, sawFound = append([]byte(nil), old...), found
					switch {
					case !found:
						return []byte{0, 0, 0, 1}, true
					case old[3] >= 3:
						return nil, false
					case step%5 == 0:
						return old, true
					}
					return []byte{old[0], old[1], old[2], old[3] + 1}, true
				})
				if err != nil {
					t.Fatalf("step %d Update: %v", step, err)
				}
				if sawFound != had || !bytes.Equal(saw, want) {
					t.Fatalf("step %d: Update(%s) was shown %v,%v want %v,%v", step, k, saw, sawFound, want, had)
				}
				switch {
				case !had:
					model[k] = []byte{0, 0, 0, 1}
				case want[3] >= 3:
					delete(model, k)
				case step%5 != 0:
					model[k] = []byte{want[0], want[1], want[2], want[3] + 1}
				}
			}
			if s.Len() != len(model) {
				t.Fatalf("step %d: Len = %d, model %d", step, s.Len(), len(model))
			}
		}
	})
}

func TestUpdateValueWidthEnforced(t *testing.T) {
	t.Run("path", func(t *testing.T) {
		s, _ := newTestORAM(t, 8, 4)
		err := s.Update("k", func([]byte, bool) ([]byte, bool) { return []byte{1}, true })
		if !errors.Is(err, ErrValueWidth) {
			t.Errorf("one-byte value into a 4-byte store: %v, want ErrValueWidth", err)
		}
	})
}

// pipelineRig is three stores on one server behind a round counter.
type pipelineRig struct {
	srv    *store.Server
	rounds *store.RoundCounter
	stores [3]*ORAM
}

func newPipelineRig(t *testing.T, wrap func(store.Service) store.Service) *pipelineRig {
	t.Helper()
	r := &pipelineRig{srv: store.NewServer()}
	r.rounds = store.WithRoundCounter(wrap(r.srv))
	cipher := crypto.MustNewCipher(crypto.MustNewKey())
	for i := range r.stores {
		s, err := Setup(r.rounds, cipher, fmt.Sprintf("s%d", i), Config{Capacity: 32, KeyWidth: 8, ValueWidth: 4, Seed: int64(3 + i)})
		if err != nil {
			t.Fatal(err)
		}
		r.stores[i] = s
	}
	r.srv.Trace().Reset()
	r.srv.Trace().Enable()
	return r
}

// unionRecord is the shape of an engine's multi-attribute step: read a value
// from each of two stores, then a read-modify-write of the third keyed by
// what was read. It returns what the third held before, and leaves the third's
// write-back owed.
func unionRecord(p *Pipeline, s [3]*ORAM, key string) (before []byte, err error) {
	var got [2][]byte
	read := func(i int) UpdateFunc {
		return func(old []byte, found bool) ([]byte, bool) {
			got[i] = append([]byte(nil), old...)
			return old, found
		}
	}
	if _, err := p.Do([]Access{{Store: s[0], Key: key, Fn: read(0)}, {Store: s[1], Key: key, Fn: read(1)}}); err != nil {
		return nil, err
	}
	_, err = p.Do([]Access{{Store: s[2], Key: joinKey(got), Fn: func(old []byte, found bool) ([]byte, bool) {
		before = append([]byte(nil), old...)
		return []byte{1, 2, 3, byte(len(old))}, true
	}}})
	return before, err
}

// joinKey makes the third store's key of what the first two held.
func joinKey(got [2][]byte) string { return (fmt.Sprintf("%x%x", got[0], got[1]) + "--------")[:8] }

func perObject(events []trace.Event) map[string][]trace.Event {
	out := make(map[string][]trace.Event)
	for _, e := range events {
		out[e.Object] = append(out[e.Object], e)
	}
	return out
}

// TestPipelineIsFramingOnly: the same accesses through a Pipeline over a
// service that fuses batches, over one that cannot, and one by one through
// Update leave every store with the same contents and every tree with the
// same event sequence, leaves included (the seeds are the same), whether each
// record is flushed or its write-back rides with the next record's fetches;
// only the number of round trips differs.
func TestPipelineIsFramingOnly(t *testing.T) {
	hideBatch := func(s store.Service) store.Service { return struct{ store.Service }{s} }
	asIs := func(s store.Service) store.Service { return s }
	keys := []string{"a", "b", "a", "c", "b", "a"}
	seed := func(t *testing.T, r *pipelineRig) {
		for i, k := range []string{"a", "b"} {
			for j, s := range r.stores[:2] {
				if err := s.Write(k, []byte{byte(i), byte(j), 0, 0}); err != nil {
					t.Fatal(err)
				}
			}
		}
		r.srv.Trace().Reset()
	}
	t.Run("path", func(t *testing.T) {
		serial := newPipelineRig(t, asIs)
		seed(t, serial)
		base := serial.rounds.Rounds()
		var wantBefore [][]byte
		for _, k := range keys {
			var got [2][]byte
			for i := range got {
				v, _, err := serial.stores[i].Read(k)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = v
			}
			var before []byte
			err := serial.stores[2].Update(joinKey(got), func(old []byte, found bool) ([]byte, bool) {
				before = append([]byte(nil), old...)
				return []byte{1, 2, 3, byte(len(old))}, true
			})
			if err != nil {
				t.Fatal(err)
			}
			wantBefore = append(wantBefore, before)
		}
		serialRounds := serial.rounds.Rounds() - base
		want := perObject(serial.srv.Trace().Events())

		for _, c := range []struct {
			name      string
			wrap      func(store.Service) store.Service
			flushEach bool
			rounds    int64
		}{
			{"fused", asIs, true, 3 * int64(len(keys))},
			{"fused, records pipelined", asIs, false, 2*int64(len(keys)) + 1},
			{"unfused", hideBatch, true, serialRounds},
		} {
			rig := newPipelineRig(t, c.wrap)
			seed(t, rig)
			base := rig.rounds.Rounds()
			p := NewPipeline(rig.rounds)
			for i, k := range keys {
				before, err := unionRecord(p, rig.stores, k)
				if err == nil && c.flushEach {
					err = p.Flush()
				}
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(before, wantBefore[i]) {
					t.Errorf("%s record %d: third store held %v, serially %v", c.name, i, before, wantBefore[i])
				}
			}
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := perObject(rig.srv.Trace().Events()); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: per-object event sequences differ from the serial run's", c.name)
			}
			if got := rig.rounds.Rounds() - base; got != c.rounds {
				t.Errorf("%s: %d rounds, want %d (serially %d)", c.name, got, c.rounds, serialRounds)
			}
		}
	})
}

// failBatches fails every Batch carrying a write-back (a cell write) while
// armed, before it reaches the backend.
type failBatches struct {
	store.Adapter
	armed bool
}

var errRoundLost = errors.New("round lost")

func newFailBatches(svc store.Service) *failBatches {
	f := &failBatches{}
	f.Adapter = store.Adapt(func(op *store.Op, res *store.Result) error {
		if f.armed && op.Kind == store.KindBatch {
			for i := range op.Ops {
				if op.Ops[i].Write {
					return errRoundLost
				}
			}
		}
		return store.Invoke(svc, op, res)
	})
	return f
}

// TestPipelineFailedRoundLeavesNoHalfAccess: when the round carrying
// write-backs fails, the handles whose paths were absorbed refuse further
// accesses, naming the cause, and a handle that had only chosen its leaf
// carries on; nothing is left half done in silence.
func TestPipelineFailedRoundLeavesNoHalfAccess(t *testing.T) {
	srv := store.NewServer()
	svc := newFailBatches(srv)
	cipher := crypto.MustNewCipher(crypto.MustNewKey())
	var o [3]*ORAM
	for i := range o {
		var err error
		if o[i], err = Setup(svc, cipher, fmt.Sprintf("s%d", i), Config{Capacity: 16, KeyWidth: 8, ValueWidth: 4, Seed: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		if err := o[i].Write("k", val(4, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	keep := func(old []byte, found bool) ([]byte, bool) { return old, found }
	p := NewPipeline(svc)
	if _, err := p.Do([]Access{{Store: o[0], Key: "k", Fn: keep}, {Store: o[1], Key: "k", Fn: keep}}); err != nil {
		t.Fatal(err)
	}
	svc.armed = true
	_, err := p.Do([]Access{{Store: o[2], Key: "k", Fn: keep}}) // carries the write-backs of the first two
	if !errors.Is(err, errRoundLost) {
		t.Fatalf("round with a failing batch: %v", err)
	}
	svc.armed = false
	for i := 0; i < 2; i++ {
		_, _, err := o[i].Read("k")
		if !errors.Is(err, errRoundLost) || !strings.Contains(err.Error(), "unusable") {
			t.Errorf("store %d after losing its write-back: %v, want a refusal naming the lost round", i, err)
		}
		if o[i].cur.stage != idle {
			t.Errorf("store %d is left mid-access", i)
		}
	}
	if v, found, err := o[2].Read("k"); err != nil || !found || !bytes.Equal(v, val(4, 2)) {
		t.Errorf("store that had only begun: Read = %v, %v, %v", v, found, err)
	}
	if err := p.Flush(); err != nil {
		t.Errorf("pipeline after the failure is not empty: %v", err)
	}
}

// TestPipelineRefusedDoPoisonsNothing: a Do that can be seen to be wrong
// before anything is sent — a store that owes its write-back to another
// pipeline, a key wider than the store takes (on a store's first mention in
// the call or a later one), a handle that has already failed — is refused whole, names the access at fault, sends nothing, and
// leaves the pipeline as it was: the write-backs the earlier Do owes are still
// owed, Flush lands them, and every earlier handle still answers. Before the
// call was validated up front, the handles begun ahead of the bad access and
// every handle awaiting its write-back were ended with the caller's mistake
// and refused all further use.
func TestPipelineRefusedDoPoisonsNothing(t *testing.T) {
	srv := store.NewServer()
	svc := newFailBatches(srv)
	cipher := crypto.MustNewCipher(crypto.MustNewKey())
	var o [5]*ORAM
	for i := range o {
		var err error
		if o[i], err = Setup(svc, cipher, fmt.Sprintf("s%d", i), Config{Capacity: 16, KeyWidth: 8, ValueWidth: 4, Seed: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		if err := o[i].Write("k", val(4, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	keep := func(old []byte, found bool) ([]byte, bool) { return old, found }
	// o[4] owes its write-back to another pipeline.
	other := NewPipeline(svc)
	if _, err := other.Do([]Access{{Store: o[4], Key: "k", Fn: keep}}); err != nil {
		t.Fatal(err)
	}
	// o[3] loses a write-back for good: the handle that "has already failed".
	dead := NewPipeline(svc)
	if _, err := dead.Do([]Access{{Store: o[3], Key: "k", Fn: keep}}); err != nil {
		t.Fatal(err)
	}
	svc.armed = true
	if err := dead.Flush(); !errors.Is(err, errRoundLost) {
		t.Fatalf("Flush through a failing service: %v", err)
	}
	svc.armed = false

	rounds := store.WithRoundCounter(svc)
	p := NewPipeline(rounds)
	if _, err := p.Do([]Access{{Store: o[0], Key: "k", Fn: keep}}); err != nil { // o[0] is served and owed a write-back
		t.Fatal(err)
	}
	sent := rounds.Rounds()
	for _, c := range []struct {
		name     string
		accesses []Access
		at       int
		want     string
	}{
		{"store named again with an over-wide key", []Access{{Store: o[1], Key: "k", Fn: keep}, {Store: o[2], Key: "k", Fn: keep}, {Store: o[1], Key: "123456789", Fn: keep}}, 2, "key too long"},
		{"store owed to another pipeline", []Access{{Store: o[1], Key: "k", Fn: keep}, {Store: o[4], Key: "k", Fn: keep}}, 1, "in flight"},
		{"over-wide key", []Access{{Store: o[1], Key: "k", Fn: keep}, {Store: o[2], Key: "123456789", Fn: keep}}, 1, "key too long"},
		{"failed handle", []Access{{Store: o[1], Key: "k", Fn: keep}, {Store: o[3], Key: "k", Fn: keep}}, 1, "unusable"},
	} {
		_, err := p.Do(c.accesses)
		var ae *AccessError
		if !errors.As(err, &ae) || ae.Index != c.at || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Do = %v, want a refusal of access %d saying %q", c.name, err, c.at, c.want)
		}
		if c.want == "key too long" && !errors.Is(err, ErrKeyWidth) {
			t.Errorf("%s: %v does not wrap ErrKeyWidth", c.name, err)
		}
	}
	if got := rounds.Rounds(); got != sent {
		t.Errorf("refused calls sent %d rounds", got-sent)
	}
	if p.wrote != 1 || len(p.owing) != 1 || p.owing[0] != o[0] || len(p.begun) != 0 || len(p.ops) != 1 {
		t.Fatalf("pipeline after refusals: %d write-backs, %d owing, %d begun, %d ops; want o[0]'s write-back alone", p.wrote, len(p.owing), len(p.begun), len(p.ops))
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush of what was owed before the refusals: %v", err)
	}
	if err := other.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 2, 4} {
		if o[i].failed != nil || o[i].cur.stage != idle {
			t.Errorf("store %d: failed = %v, stage %d after refused calls", i, o[i].failed, o[i].cur.stage)
		}
		if v, found, err := o[i].Read("k"); err != nil || !found || !bytes.Equal(v, val(4, byte(i))) {
			t.Errorf("store %d after refused calls: Read = %v, %v, %v", i, v, found, err)
		}
	}
}

// TestPipelineRetriedRoundIsInvisible: under a retrying service a round that
// fails once before reaching the backend is sent again whole, the accesses
// complete, and the backend's trace is the fault-free one.
func TestPipelineRetriedRoundIsInvisible(t *testing.T) {
	run := func(fail bool) trace.Shape {
		srv := store.NewServer()
		flaky := newFailBatches(srv)
		once := store.Adapt(func(op *store.Op, res *store.Result) error {
			err := store.Invoke(flaky, op, res)
			if err != nil {
				flaky.armed = false
				return fmt.Errorf("%w: %v", store.ErrTransient, err)
			}
			return nil
		})
		svc := store.WithRetry(once, store.RetryPolicy{MaxAttempts: 3})
		cipher := crypto.MustNewCipher(crypto.MustNewKey())
		var s [3]*ORAM
		for i := range s {
			o, err := Setup(svc, cipher, fmt.Sprintf("s%d", i), Config{Capacity: 16, KeyWidth: 8, ValueWidth: 4, Seed: int64(i + 1)})
			if err != nil {
				t.Fatal(err)
			}
			if err := o.Write("k", val(4, byte(i+1))); err != nil {
				t.Fatal(err)
			}
			s[i] = o
		}
		srv.Trace().Reset()
		srv.Trace().Enable()
		flaky.armed = fail
		p := NewPipeline(svc)
		if _, err := unionRecord(p, s, "k"); err != nil {
			t.Fatal(err)
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		if fail && (flaky.armed || svc.Retries() != 1) {
			t.Fatalf("the fault did not fire exactly once (%d retries)", svc.Retries())
		}
		return trace.ShapeOf(srv.Trace().Events())
	}
	clean, faulted := run(false), run(true)
	if !clean.Equal(faulted) {
		t.Errorf("a retried round shows in the trace:\n%s", clean.Diff(faulted))
	}
}

// TestPipelineDoCarriesCellOps: cell ops handed to Do beside its accesses
// ride in the same round, after the write-backs owed and the fetches, and Do
// returns their answers in order — a read's cells, a write's nil. So a caller
// can send one chunk's label cells, the next chunk's fetches and the reads of
// the one after in one round trip.
func TestPipelineDoCarriesCellOps(t *testing.T) {
	r := newPipelineRig(t, func(s store.Service) store.Service { return s })
	s := r.stores
	if err := r.srv.CreateArray("cells", 4); err != nil {
		t.Fatal(err)
	}
	if err := r.srv.WriteCells("cells", []int64{0, 1}, [][]byte{{7}, {8}}); err != nil {
		t.Fatal(err)
	}
	r.srv.Trace().Reset()
	keep := func(old []byte, found bool) ([]byte, bool) { return old, found }
	p := NewPipeline(r.rounds)
	before := r.rounds.Rounds()
	if _, err := p.Do([]Access{{Store: s[0], Key: "k", Fn: keep}}); err != nil {
		t.Fatal(err)
	}
	answers, err := p.Do([]Access{{Store: s[1], Key: "k", Fn: keep}},
		store.BatchOp{Write: true, Name: "cells", Idx: []int64{2}, Cts: [][]byte{{9}}},
		store.BatchOp{Name: "cells", Idx: []int64{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if want := [][][]byte{nil, {{8}, {7}}}; !reflect.DeepEqual(answers, want) {
		t.Errorf("Do answered %v for its cell ops, want %v", answers, want)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := r.rounds.Rounds() - before; got != 3 {
		t.Errorf("%d rounds, want 3", got)
	}
	var calls []string // the round's ops, one entry per run of events of one op on one object
	for _, e := range r.srv.Trace().Events() {
		c := fmt.Sprintf("%v %s", e.Op, e.Object)
		if len(calls) == 0 || calls[len(calls)-1] != c {
			calls = append(calls, c)
		}
	}
	want := []string{
		"ReadTreeCell s0",
		"WriteTreeCell s0", "ReadTreeCell s1", "WriteCell cells", "ReadCell cells",
		"WriteTreeCell s1",
	}
	if !reflect.DeepEqual(calls, want) {
		t.Errorf("server saw %v, want %v", calls, want)
	}
}

// TestPipelineReentersBehindWriteBack: a store whose write-back the pipeline
// still owes may be named again. Its fetch rides behind the write-back in one
// round — one round fewer than a Flush between them — the second access sees
// what the first left, the first's write-back has settled before the second's
// Fn, and the server's trace is that of two serial accesses. Anyone else is
// still refused the owed handle; when the combined round is lost the handle
// refuses further use, while a handle that had only begun in that round
// carries on.
func TestPipelineReentersBehindWriteBack(t *testing.T) {
	asIs := func(s store.Service) store.Service { return s }
	count := func(old []byte, found bool) ([]byte, bool) {
		if !found {
			return val(4, 1), true
		}
		return val(4, old[3]+1), true
	}
	t.Run("rides behind its write-back", func(t *testing.T) {
		serial := newPipelineRig(t, asIs)
		for range 2 {
			if err := serial.stores[0].Update("k", count); err != nil {
				t.Fatal(err)
			}
		}
		want := perObject(serial.srv.Trace().Events())

		rig := newPipelineRig(t, asIs)
		o, p, base := rig.stores[0], NewPipeline(rig.rounds), rig.rounds.Rounds()
		if _, err := p.Do([]Access{{Store: o, Key: "k", Fn: count}}); err != nil {
			t.Fatal(err)
		}
		if o.owedTo != p {
			t.Error("the write-back settled before it was sent")
		}
		var saw []byte
		_, err := p.Do([]Access{{Store: o, Key: "k", Fn: func(old []byte, found bool) ([]byte, bool) {
			if o.owedTo != nil {
				t.Error("the second access was served before the first's write-back landed")
			}
			saw = append([]byte(nil), old...)
			return count(old, found)
		}}})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := rig.rounds.Rounds() - base; got != 3 {
			t.Errorf("%d rounds, want 3: a fetch, the write-back with the next fetch, the last write-back", got)
		}
		if !bytes.Equal(saw, val(4, 1)) {
			t.Errorf("the second access found %v, want what the first left, %v", saw, val(4, 1))
		}
		if got := perObject(rig.srv.Trace().Events()); !reflect.DeepEqual(got[o.Name()], want[o.Name()]) {
			t.Errorf("the tree's events differ from two serial accesses':\n got  %v\n want %v", got[o.Name()], want[o.Name()])
		}
		if v, _, err := o.Read("k"); err != nil || !bytes.Equal(v, val(4, 2)) {
			t.Errorf("after both: Read = %v, %v; want %v", v, err, val(4, 2))
		}
	})
	t.Run("refused to anyone else", func(t *testing.T) {
		rig := newPipelineRig(t, asIs)
		o, p := rig.stores[0], NewPipeline(rig.rounds)
		if _, err := p.Do([]Access{{Store: o, Key: "k", Fn: count}}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := o.Read("k"); err == nil || !strings.Contains(err.Error(), "in flight") {
			t.Errorf("direct Read of an owed handle: %v, want a refusal saying it is in flight", err)
		}
		var ae *AccessError
		if _, err := NewPipeline(rig.rounds).Do([]Access{{Store: o, Key: "k", Fn: count}}); !errors.As(err, &ae) || !strings.Contains(err.Error(), "in flight") {
			t.Errorf("Do from another pipeline on an owed handle: %v, want a refusal saying it is in flight", err)
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		if v, _, err := o.Read("k"); err != nil || !bytes.Equal(v, val(4, 1)) {
			t.Errorf("after the write-back landed: Read = %v, %v", v, err)
		}
	})
	t.Run("combined round lost", func(t *testing.T) {
		svc := newFailBatches(store.NewServer())
		cipher := crypto.MustNewCipher(crypto.MustNewKey())
		var o [2]*ORAM
		for i := range o {
			var err error
			if o[i], err = Setup(svc, cipher, fmt.Sprintf("s%d", i), Config{Capacity: 16, KeyWidth: 8, ValueWidth: 4, Seed: int64(i + 1)}); err != nil {
				t.Fatal(err)
			}
			if err := o[i].Write("k", val(4, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		p := NewPipeline(svc)
		if _, err := p.Do([]Access{{Store: o[0], Key: "k", Fn: count}}); err != nil {
			t.Fatal(err)
		}
		svc.armed = true
		_, err := p.Do([]Access{{Store: o[0], Key: "k", Fn: count}, {Store: o[1], Key: "k", Fn: count}})
		svc.armed = false
		if !errors.Is(err, errRoundLost) {
			t.Fatalf("combined round through a failing service: %v", err)
		}
		if _, _, err := o[0].Read("k"); !errors.Is(err, errRoundLost) || !strings.Contains(err.Error(), "unusable") {
			t.Errorf("store whose write-back rode in the lost round: %v, want a refusal naming it", err)
		}
		if o[1].cur.stage != idle || o[1].owedTo != nil {
			t.Error("the store that had only begun is left mid-access")
		}
		if v, found, err := o[1].Read("k"); err != nil || !found || !bytes.Equal(v, val(4, 1)) {
			t.Errorf("store that had only begun: Read = %v, %v, %v", v, found, err)
		}
		if err := p.Flush(); err != nil {
			t.Errorf("pipeline after the failure is not empty: %v", err)
		}
	})
}

// batchModel runs steps random batches of one to maxR accesses to o through
// one pipeline — keys drawn from keys names, so a batch repeats keys, misses
// and removes — and checks every function is shown what a map applying the
// same accesses in call order holds, and that the store holds what the map
// does once each batch's write-back has landed.
func batchModel(t *testing.T, o *ORAM, keys, steps, maxR int, seed int64) {
	t.Helper()
	model := make(map[string][]byte)
	rng := rand.New(rand.NewSource(seed))
	p := NewPipeline(o.svc)
	for step := 0; step < steps; step++ {
		accesses := make([]Access, 1+rng.Intn(maxR))
		for i := range accesses {
			k := fmt.Sprintf("k%d", rng.Intn(keys))
			kind := rng.Intn(4)
			v := []byte{byte(step), byte(i), byte(kind), 1}
			accesses[i] = Access{Store: o, Key: k, Fn: func(old []byte, found bool) ([]byte, bool) {
				want, had := model[k]
				if found != had || !bytes.Equal(old, want) {
					t.Fatalf("step %d access %d (%s): shown %v, %v; the model holds %v, %v", step, i, k, old, found, want, had)
				}
				switch kind {
				case 0: // read
					return old, found
				case 1: // remove
					delete(model, k)
					return nil, false
				case 2: // count up from nothing
					if !found {
						model[k] = []byte{0, 0, 0, 1}
						return model[k], true
					}
					model[k] = []byte{old[0], old[1], old[2], old[3] + 1}
					return model[k], true
				}
				model[k] = v
				return v, true
			}}
		}
		if _, err := p.Do(accesses); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if rng.Intn(3) == 0 { // otherwise the write-back rides with the next batch's fetches
			if err := p.Flush(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if o.Len() != len(model) {
		t.Fatalf("Len = %d, model %d", o.Len(), len(model))
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%d", i)
		v, found, err := o.Read(k)
		if want, had := model[k]; err != nil || found != had || !bytes.Equal(v, want) {
			t.Fatalf("after the batches: Read(%s) = %v, %v, %v; the model holds %v, %v", k, v, found, err, want, had)
		}
	}
	checkSlots(t, o)
}

// equivocator, once armed, answers the second fetch of a bucket in one round —
// a bucket two paths of the round share below the levels it reads whole —
// with the first ciphertext it ever answered for that bucket: an authentic
// ciphertext of the same bucket, and no longer the current one.
type equivocator struct {
	store.Adapter
	armed bool
	old   map[int64][]byte
	fired bool
}

func newEquivocator(svc store.Service) *equivocator {
	e := &equivocator{old: make(map[int64][]byte)}
	e.Adapter = store.Adapt(func(op *store.Op, res *store.Result) error {
		if err := store.Invoke(svc, op, res); err != nil || op.Kind != store.KindBatch {
			return err
		}
		for i := range op.Ops {
			if b := &op.Ops[i]; !b.Write {
				e.tamper(b.Idx, res.Batch[i])
			}
		}
		return nil
	})
	return e
}

func (e *equivocator) tamper(idx []int64, cts [][]byte) {
	seen := make(map[int64]bool)
	for k, p := range idx {
		old, ok := e.old[p]
		if !ok {
			e.old[p] = cts[k]
		}
		if e.armed && !e.fired && seen[p] && ok && !bytes.Equal(old, cts[k]) {
			cts[k] = old
			e.fired = true
		}
		seen[p] = true
	}
}

// TestBatchEquivocationDetected: a server that shows one round two different
// authentic ciphertexts of one bucket — the current one to one path and an
// older one to another — is caught: the round fails with ErrIntegrity, counts
// as an integrity failure, and leaves the handle refusing further use. Four
// paths on a tree of 16 leaves share a bucket below the top two levels in
// most rounds; rounds run until one does.
func TestBatchEquivocationDetected(t *testing.T) {
	svc := newEquivocator(store.NewServer())
	reg := telemetry.New()
	o, err := Setup(svc, crypto.MustNewCipher(crypto.MustNewKey()), "t", Config{
		Capacity: 32, KeyWidth: 8, ValueWidth: 4, Seed: 5, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	keep := func(old []byte, found bool) ([]byte, bool) { return val(4, 1), true }
	batch := make([]Access, 4)
	for i := range batch {
		batch[i] = Access{Store: o, Key: string(rune('a' + i)), Fn: keep}
	}
	p := NewPipeline(svc)
	if _, err := p.Do(batch); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	svc.armed = true
	for round := 0; round < 20 && !svc.fired; round++ {
		if _, err = p.Do(batch); err == nil {
			err = p.Flush()
		}
	}
	if !svc.fired {
		t.Fatal("the server never equivocated")
	}
	if !errors.Is(err, store.ErrIntegrity) || !strings.Contains(err.Error(), "different authentic ciphertexts") {
		t.Fatalf("round with two authentic copies of a bucket: %v, want an integrity failure naming the equivocation", err)
	}
	if got := reg.Counter("oblivfd_integrity_failures_total").Value(); got != 1 {
		t.Errorf("integrity failures counted: %d, want 1", got)
	}
	if _, _, err := o.Read("a"); !errors.Is(err, store.ErrIntegrity) || !strings.Contains(err.Error(), "unusable") {
		t.Errorf("handle after the equivocation: %v, want a refusal", err)
	}
}
