package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

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
}

func (st *oramState) cardinality() int { return int(st.card) }

// oramCore is everything OrEngine and ExEngine have in common: Algorithm 4
// is Algorithm 2 "with frequencies", so the two engines differ in the layout
// above, in the loop body (step), and in which record ids are live (ids).
// Both traverse records one by one, which is also why both take insertions:
// an appended record is simply an untraversed one (§IV-C(c)).
type oramCore struct {
	parallelTable[*oramState]
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
	// ids returns the live record ids in ascending order, the traversal
	// order of Algorithms 1, 2 and 4 (ids are public row numbers).
	ids func() []int
	// step is the loop body for one record with its key_X already built.
	step func(st *oramState, id int, key uint64) error
}

// init wires a core that is embedded in its engine; the engine sets ids and
// step itself.
func (c *oramCore) init(edb *EncryptedDB, instance string, layout oramLayout) {
	c.setTable = newSetTable[*oramState](c)
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
	return &oramState{primary: primary, secondary: secondary, cover: cover}, nil
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

// unionKeyFor builds key_X for record id from the labels in the two covering
// subsets' ID ORAMs (Algorithm 2, lines 4–6).
func (c *oramCore) unionKeyFor(id int, cover1, cover2 *oramState) (uint64, error) {
	var labels [2]uint64
	for i, cover := range [2]*oramState{cover1, cover2} {
		v, found, err := cover.secondary.Read(idKey(id))
		if err != nil {
			return 0, fmt.Errorf("core: O^%s read: %w", c.layout.secondary, err)
		}
		if !found {
			return 0, fmt.Errorf("%w: id %d missing from subset partition", ErrNotMaterialized, id)
		}
		labels[i] = decodeUint64(v[c.layout.labelAt:])
	}
	return unionKey(labels[0], labels[1]), nil
}

// fillSingle is Algorithm 1 (Algorithm 4 with |X| = 1).
func (c *oramCore) fillSingle(st *oramState, attr int) error {
	for _, id := range c.ids() {
		key, err := c.singleKeyFor(id, attr)
		if err != nil {
			return err
		}
		if err := c.step(st, id, key); err != nil {
			return err
		}
	}
	return nil
}

// fillUnion is Algorithm 2 (Algorithm 4's multi-attribute variant, which
// obtains key_X the same way).
func (c *oramCore) fillUnion(st *oramState, _ relation.AttrSet, cover1, cover2 *oramState) error {
	for _, id := range c.ids() {
		key, err := c.unionKeyFor(id, cover1, cover2)
		if err != nil {
			return err
		}
		if err := c.step(st, id, key); err != nil {
			return err
		}
	}
	return nil
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
		var key uint64
		var err error
		if x.Size() == 1 {
			key, err = c.singleKeyFor(id, x.First())
		} else {
			cover1, ok1 := c.sets[st.cover[0]]
			cover2, ok2 := c.sets[st.cover[1]]
			if !ok1 || !ok2 {
				return fmt.Errorf("%w: cover of %v was released; dynamic use requires keeping partitions", ErrNotMaterialized, x)
			}
			key, err = c.unionKeyFor(id, cover1, cover2)
		}
		if err != nil {
			return err
		}
		return c.step(st, id, key)
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
		c.sets[s.Set] = &oramState{primary: primary, secondary: secondary, card: s.Card, nextLabel: s.NextLabel, cover: s.Cover}
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
