package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/oblivfd/oblivfd/internal/obsort"
	"github.com/oblivfd/oblivfd/internal/oram"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/telemetry"
)

// oramLayout is what distinguishes §IV-C's pair of ORAMs from §V's, as data.
// For each materialized attribute set X an ORAM engine keeps
//
//	a primary   ORAM keyed by key_X  (it counts distinct keys), and
//	a secondary ORAM keyed by r[ID]  (it feeds the supersets of X):
//
//	OrEngine  O_X^KL  : key_X → label_X            O_X^IL  : r[ID] → label_X
//	ExEngine  O_X^KLF : key_X → (label_X, fre_X)   O_X^IKL : r[ID] → (key_X, label_X)
type oramLayout struct {
	kind               string // EngineState.Kind, and the checkpoint's claim on who may resume it
	primary, secondary string // object-name suffixes, also used in error wording
	valueWidth         int    // bytes per value, the same in both ORAMs
	labelAt            int    // where label_X sits inside the secondary's value
}

var (
	orLayout = oramLayout{kind: engineKindOr, primary: "KL", secondary: "IL", valueWidth: labelWidth}
	exLayout = oramLayout{kind: engineKindEx, primary: "KLF", secondary: "IKL", valueWidth: keyWidth + labelWidth, labelAt: keyWidth}
)

// oramState is one materialized set of an ORAM engine.
type oramState struct {
	primary, secondary oram.Store
	card               uint64              // |π_X|
	nextLabel          uint64              // ExEngine's monotone label source
	cover              [2]relation.AttrSet // the Property 1 subsets; zero for singletons
	// pipe fuses the server calls of one record's accesses — to this set's
	// two ORAMs and, for a union, its covers' — into one round per phase.
	pipe *oram.Pipeline
	// val is where a step builds the value an access stores; a store copies
	// it before the next one is built.
	val [keyWidth + labelWidth]byte
}

func (st *oramState) cardinality() int { return int(st.card) }

// pair packs two uint64s into the state's scratch as ExEngine's fixed
// 16-byte ORAM value.
func (st *oramState) pair(a, b uint64) []byte {
	binary.BigEndian.PutUint64(st.val[:8], a)
	binary.BigEndian.PutUint64(st.val[8:], b)
	return st.val[:]
}

// oramCore is everything OrEngine and ExEngine have in common: Algorithm 4
// is Algorithm 2 "with frequencies", so the two engines differ in the layout
// above, in the loop body (step), and in which record ids are live. Both
// traverse records one by one, which is also why both take insertions: an
// appended record is simply an untraversed one (§IV-C(c)).
//
// One record costs a number of ORAM accesses and of round trips that depend
// on |X| alone. Where Algorithms 1, 2 and 4 read key_X's pair and then write
// it, the step makes one read-modify-write access (oram.Store.Update), and the
// accesses of a record — different trees, leaves known to the client before
// anything is fetched — share their round trips (oram.Pipeline):
//
//	|X| = 1   [ReadPath P, ReadPath S] → [WritePath P, WritePath S]
//	|X| ≥ 2   [ReadPath c1, ReadPath c2]
//	          → [WritePath c1, WritePath c2, ReadPath P, ReadPath S]
//	          → [WritePath P, WritePath S]
//
// with P and S the set's primary and secondary ORAM and c1, c2 its covers'
// secondaries: 2 accesses in 2 rounds, or 4 in 3.
type oramCore struct {
	setTable[*oramState]
	edb      *EncryptedDB
	instance string
	// Factory builds the oblivious key-value stores backing each
	// partition; nil means the paper's PathORAM (oram.PathFactory). Set it
	// before the first materialization to use an alternative such as
	// oram.LinearFactory.
	Factory oram.Factory
	// Telemetry, if non-nil, instruments every ORAM the engine builds
	// (path read/write counters, access spans, stash gauge). Set it before
	// the first materialization, or call SetTelemetry to also cover
	// already-built stores (the resume path does).
	Telemetry *telemetry.Registry
	capacity  int
	seq       atomic.Int64 // unique ORAM-name counter across the engine's life
	layout    oramLayout
	// live reports whether a record id is one to traverse. Ids are public
	// row numbers, and Algorithms 1, 2 and 4 visit the live ones in ascending
	// order.
	live func(id int) bool
	// step is the loop body for one record with its key_X already built: the
	// primary's read-modify-write and the secondary's write in one round, the
	// write-backs in the next, and only then the set's card_X.
	step func(st *oramState, id string, key uint64) error
}

// init wires a core that is embedded in its engine; the engine sets live and
// step itself.
func (c *oramCore) init(edb *EncryptedDB, instance string, layout oramLayout) {
	c.setTable = newSetTable[*oramState](c, setsInParallel)
	c.edb, c.instance, c.capacity, c.layout = edb, instance, edb.Capacity(), layout
}

// SetTelemetry attaches a metrics registry to the engine and re-instruments
// every already-materialized ORAM handle (checkpoint resume rebuilds the
// handles without telemetry; this wires them back up).
func (c *oramCore) SetTelemetry(reg *telemetry.Registry) {
	c.Telemetry = reg
	c.edb.cipher.SetTelemetry(reg)
	for _, st := range c.sets {
		st.primary.SetTelemetry(reg)
		st.secondary.SetTelemetry(reg)
	}
}

// prepare sets up the set's two ORAMs. Tree set-up is a deterministic linear
// pass, and doing it here — serially, in job order — is what gives a batch
// the object names and sequence numbers of the serial run.
func (c *oramCore) prepare(x relation.AttrSet, cover [2]relation.AttrSet) (*oramState, error) {
	seq := c.seq.Add(1)
	factory := c.Factory
	if factory == nil {
		factory = oram.PathFactory
	}
	mk := func(suffix string) (oram.Store, error) {
		s, err := factory(c.edb.svc, c.edb.cipher,
			fmt.Sprintf("%s:%d:%s", c.instance, seq, suffix),
			oram.Config{Capacity: c.capacity, KeyWidth: keyWidth, ValueWidth: c.layout.valueWidth, Metrics: c.Telemetry})
		if err != nil {
			return nil, fmt.Errorf("core: setting up O^%s for %v: %w", suffix, x, err)
		}
		return s, nil
	}
	primary, err := mk(c.layout.primary)
	if err != nil {
		return nil, err
	}
	secondary, err := mk(c.layout.secondary)
	if err != nil {
		_ = primary.Destroy() // best effort; the set-up error is the one to report
		return nil, err
	}
	return &oramState{primary: primary, secondary: secondary, cover: cover, pipe: oram.NewPipeline(c.edb.svc)}, nil
}

func (c *oramCore) destroy(st *oramState) error {
	return errors.Join(st.primary.Destroy(), st.secondary.Destroy())
}

// singleKeyFor compresses record id's value under a single attribute.
func (c *oramCore) singleKeyFor(id, attr int) (uint64, error) {
	v, err := c.edb.CellValue(id, attr)
	if err != nil {
		return 0, err
	}
	return singleKey(c.edb.cipher, v), nil
}

// unionStep builds key_X for record id from the labels in the two covering
// subsets' ID ORAMs (Algorithm 2, lines 4–6) and runs the step with it. The
// covers' write-backs travel with the step's own fetches.
func (c *oramCore) unionStep(st *oramState, id int, cover1, cover2 *oramState) error {
	rid := idKey(id)
	var labels [2]uint64
	var found [2]bool
	label := func(i int) oram.UpdateFunc {
		return func(old []byte, ok bool) ([]byte, bool) {
			found[i] = ok
			if ok {
				labels[i] = decodeUint64(old[c.layout.labelAt:])
			}
			return old, ok
		}
	}
	err := st.pipe.Do(
		oram.Access{Store: cover1.secondary, Key: rid, Fn: label(0)},
		oram.Access{Store: cover2.secondary, Key: rid, Fn: label(1)})
	if err != nil {
		return fmt.Errorf("core: O^%s read: %w", c.layout.secondary, err)
	}
	if !found[0] || !found[1] {
		return errors.Join(fmt.Errorf("%w: id %d missing from subset partition", ErrNotMaterialized, id), st.pipe.Flush())
	}
	return c.step(st, rid, unionKey(labels[0], labels[1]))
}

// eachLive visits the live record ids in ascending order, at most
// obsort.ChunkCells of them per call — the bound on what a fill holds of a
// column at a time. The slice is reused between calls.
func (c *oramCore) eachLive(visit func(ids []int64) error) error {
	ids := make([]int64, 0, obsort.ChunkCells)
	for id, n := 0, c.edb.NumRows(); id < n; id++ {
		if !c.live(id) {
			continue
		}
		ids = append(ids, int64(id))
		if len(ids) < cap(ids) {
			continue
		}
		if err := visit(ids); err != nil {
			return err
		}
		ids = ids[:0]
	}
	if len(ids) == 0 {
		return nil
	}
	return visit(ids)
}

// fillSingle is Algorithm 1 (Algorithm 4 with |X| = 1). The column is
// fetched a chunk of cells per round, as the sort engine fetches it; the
// server records the same one access per cell, in the same ascending order,
// as it does for a round per record.
func (c *oramCore) fillSingle(st *oramState, attr int) error {
	return c.eachLive(func(ids []int64) error {
		vals, err := c.edb.CellValuesAt(ids, attr)
		if err != nil {
			return err
		}
		for k, id := range ids {
			if err := c.step(st, idKey(int(id)), singleKey(c.edb.cipher, vals[k])); err != nil {
				return err
			}
		}
		return nil
	})
}

// fillUnion is Algorithm 2 (Algorithm 4's multi-attribute variant, which
// obtains key_X the same way).
func (c *oramCore) fillUnion(st *oramState, _ relation.AttrSet, cover1, cover2 *oramState) error {
	return c.eachLive(func(ids []int64) error {
		for _, id := range ids {
			if err := c.unionStep(st, int(id), cover1, cover2); err != nil {
				return err
			}
		}
		return nil
	})
}

// eachSet runs fn on every materialized set, covers before their unions, and
// reports the time each set took to hook when there is one.
func (c *oramCore) eachSet(hook func(relation.AttrSet, time.Duration), fn func(x relation.AttrSet, st *oramState) error) error {
	for _, x := range c.setsBySize() {
		start := time.Now()
		if err := fn(x, c.sets[x]); err != nil {
			return err
		}
		if hook != nil {
			hook(x, time.Since(start))
		}
	}
	return nil
}

// insert continues the traversal for one appended record across every
// materialized set, in subset-before-superset order so Algorithm 2's key
// construction finds fresh labels (§IV-C(c)). The engine records the id as
// live afterwards.
func (c *oramCore) insert(row relation.Row, hook func(relation.AttrSet, time.Duration)) (int, error) {
	id, err := c.edb.AppendRow(row)
	if err != nil {
		return 0, err
	}
	err = c.eachSet(hook, func(x relation.AttrSet, st *oramState) error {
		if x.Size() == 1 {
			key, err := c.singleKeyFor(id, x.First())
			if err != nil {
				return err
			}
			return c.step(st, idKey(id), key)
		}
		cover1, ok1 := c.sets[st.cover[0]]
		cover2, ok2 := c.sets[st.cover[1]]
		if !ok1 || !ok2 {
			return fmt.Errorf("%w: cover of %v was released; dynamic use requires keeping partitions", ErrNotMaterialized, x)
		}
		return c.unionStep(st, id, cover1, cover2)
	})
	if err != nil {
		return 0, err
	}
	return id, nil
}

// checkpointState deep-captures every materialized set's cardinality, cover
// and ORAM client states, in cover-before-union order so resume can rebuild
// dependencies in sequence. The engine adds its own record of which ids are
// live.
func (c *oramCore) checkpointState() *EngineState {
	es := &EngineState{Kind: c.layout.kind, Instance: c.instance, Seq: c.seq.Load()}
	for _, x := range c.setsBySize() {
		st := c.sets[x]
		es.Sets = append(es.Sets, SetState{
			Set:       x,
			Card:      st.card,
			NextLabel: st.nextLabel,
			Cover:     st.cover,
			Primary:   st.primary.CheckpointState(),
			Secondary: st.secondary.CheckpointState(),
		})
	}
	return es
}

// resume is init from checkpointed state: every set's ORAM handles are
// reattached to their existing server-side objects. The server must hold
// exactly the storage state it had at capture time (see the consistency
// contract in checkpoint.go).
func (c *oramCore) resume(edb *EncryptedDB, es *EngineState, layout oramLayout) error {
	if es.Kind != layout.kind {
		return fmt.Errorf("%w: engine kind %q, want %q", ErrCorruptCheckpoint, es.Kind, layout.kind)
	}
	c.init(edb, es.Instance, layout)
	c.Factory = factoryFromSets(es.Sets)
	c.seq.Store(es.Seq)
	for _, s := range es.Sets {
		primary, err := oram.ResumeStore(edb.svc, edb.cipher, s.Primary)
		if err != nil {
			return fmt.Errorf("core: resuming O^%s for %v: %w", layout.primary, s.Set, err)
		}
		secondary, err := oram.ResumeStore(edb.svc, edb.cipher, s.Secondary)
		if err != nil {
			return fmt.Errorf("core: resuming O^%s for %v: %w", layout.secondary, s.Set, err)
		}
		c.sets[s.Set] = &oramState{primary: primary, secondary: secondary, card: s.Card, nextLabel: s.NextLabel, cover: s.Cover, pipe: oram.NewPipeline(edb.svc)}
	}
	return nil
}

// ClientMemoryBytes implements Engine: the stashes and position maps.
func (c *oramCore) ClientMemoryBytes() int {
	total := 0
	for _, st := range c.sets {
		total += st.primary.ClientMemoryBytes() + st.secondary.ClientMemoryBytes()
	}
	return total
}
