package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
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
	// step is the loop body for one record with its key_X already built: the
	// primary's read-modify-write and the secondary's write, and what moves
	// the set's card_X once both write-backs are on the server. levelStep
	// sends them.
	step func(st *oramState, id string, key uint64) (primary, secondary oram.Access, commit func())
}

var (
	orLayout = oramLayout{kind: engineKindOr, primary: "KL", secondary: "IL", valueWidth: labelWidth, step: orStep}
	exLayout = oramLayout{kind: engineKindEx, primary: "KLF", secondary: "IKL", valueWidth: keyWidth + labelWidth, labelAt: keyWidth, step: exStep}
)

// oramState is one materialized set of an ORAM engine.
type oramState struct {
	primary, secondary *oram.ORAM
	card               uint64              // |π_X|
	nextLabel          uint64              // ExEngine's monotone label source
	cover              [2]relation.AttrSet // the Property 1 subsets; zero for singletons
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

// levelWidth is the most sets of one lattice level the ORAM engines step
// together. A record's round then holds at most 2·levelWidth + c paths of
// ≈ 2.5 KB (c ≤ 2·levelWidth distinct covers), which keeps what the client
// buffers per round independent of n and of C(m, m/2); a wider level is cut
// into groups of this many, in request order. The value is from the sweep in
// EXPERIMENTS.md ("ORAM rounds"): a level's rounds fall as 1/width, and at 16
// a round's ≈ 50 paths already take five times the paper's LAN round trip to
// transfer, so each further doubling buys under a tenth of the level's time
// for twice the buffer.
const levelWidth = 16

// levelAtATime is the ORAM engines' grouping: up to levelWidth targets of one
// level per fill, fills one after the other because the groups of a level
// share their covers.
var levelAtATime = grouping{width: levelWidth}

// oramCore is everything OrEngine and ExEngine have in common: Algorithm 4
// is Algorithm 2 "with frequencies", so the two engines differ in the layout
// above, loop body included, and in Ex-ORAM's deletion. Both traverse records
// one by one, which is also why both take insertions: an appended record is
// simply an untraversed one (§IV-C(c)).
//
// Where Algorithm 2 runs its loop over the records once per set, the engines
// run it once per group of w sets of one lattice level (levelStep): record by
// record, each of the c distinct covers the group names is read once, however
// many targets name it, and the accesses of a record — different trees, leaves
// known to the client before anything is fetched — share their round trips
// (oram.Pipeline). Where Algorithms 1, 2 and 4 read key_X's pair and then
// write it, a step makes one read-modify-write access (oram.ORAM.Update):
//
//	|X| = 1   [ReadPath P₁, ReadPath S₁, … P_w, S_w]
//	          → [WritePath P₁, WritePath S₁, … P_w, S_w]
//	|X| ≥ 2   [ReadPath c₁, … c_c]
//	          → [WritePath c₁, … c_c, ReadPath P₁, ReadPath S₁, … P_w, S_w]
//	          → [WritePath P₁, WritePath S₁, … P_w, S_w]
//
// with P and S a target's primary and secondary ORAM and c₁ … the covers'
// secondaries: 2w accesses in 2 rounds, or 2w + c in 3. What w and c are, and
// which structures stand where in a round, follows from the request list —
// the lattice, a function of (m, FDs) — and from nothing fetched.
type oramCore struct {
	setTable[*oramState]
	edb      *EncryptedDB
	instance string
	// Telemetry, if non-nil, instruments every ORAM the engine builds
	// (path read/write counters, access spans, stash gauge). Set it before
	// the first materialization, or call SetTelemetry to also cover
	// already-built stores (the resume path does).
	Telemetry *telemetry.Registry
	capacity  int
	seq       atomic.Int64 // unique ORAM-name counter across the engine's life
	layout    oramLayout
	// pipe fuses the server calls of one record's accesses into one round per
	// phase. The engine steps one group, or one set of an insertion or a
	// deletion, at a time, so one pipeline serves them all.
	pipe *oram.Pipeline
	// dead holds the ids of the database's rows that are not to be traversed:
	// insertions that failed after their row was appended and, in ExEngine,
	// deleted records. Ids are public row numbers, and Algorithms 1, 2 and 4
	// visit the others in ascending order.
	dead map[int]bool
}

// init wires a core that is embedded in its engine.
func (c *oramCore) init(edb *EncryptedDB, instance string, layout oramLayout) {
	c.setTable = newSetTable[*oramState](c, levelAtATime)
	c.edb, c.instance, c.capacity, c.layout = edb, instance, edb.Capacity(), layout
	c.pipe = oram.NewPipeline(edb.svc)
	c.dead = make(map[int]bool)
}

// NumRows implements Engine: the records traversed.
func (c *oramCore) NumRows() int { return c.edb.NumRows() - len(c.dead) }

// live reports whether id names a record to traverse.
func (c *oramCore) live(id int) bool { return id >= 0 && id < c.edb.NumRows() && !c.dead[id] }

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
	cfg := oram.Config{Capacity: c.capacity, KeyWidth: keyWidth, ValueWidth: c.layout.valueWidth, Metrics: c.Telemetry}
	mk := func(suffix string) (*oram.ORAM, error) {
		s, err := oram.Setup(c.edb.svc, c.edb.cipher, fmt.Sprintf("%s:%d:%s", c.instance, seq, suffix), cfg)
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

// level is a group of targets of one lattice level being stepped together:
// the distinct covers they name, and one record's worth of scratch.
type level struct {
	size      int // |X| of every target, the lattice level
	targets   []target[*oramState]
	reads     []oram.Access      // the cover round: one per distinct cover, in order of first mention; keys aside
	coverSets []relation.AttrSet // the covers' names, for errors
	at        [][2]int           // targets[i]'s covers are reads[at[i][0]] and reads[at[i][1]]
	labels    []uint64           // label_c(record), per cover
	found     []bool
	readers   []oram.UpdateFunc // readers[k] notes what reads[k] found in labels[k], found[k]
	accesses  []oram.Access     // the target round
	commits   []func()
}

// lay lays a group out in lv for levelStep. It reuses what lv holds from an
// earlier group, which is how an insertion steps one set after another
// without building a level for each.
func (c *oramCore) lay(lv *level, group []target[*oramState]) *level {
	lv.size, lv.targets = group[0].set.Size(), group
	lv.reads, lv.coverSets, lv.at = lv.reads[:0], lv.coverSets[:0], lv.at[:0]
	if lv.size == 1 {
		return lv
	}
	for _, t := range group {
		var at [2]int
		for j, cv := range t.cover {
			k := 0
			for k < len(lv.reads) && lv.reads[k].Store != cv.secondary {
				k++
			}
			if k == len(lv.readers) {
				lv.labels, lv.found = append(lv.labels, 0), append(lv.found, false)
				lv.readers = append(lv.readers, func(old []byte, ok bool) ([]byte, bool) {
					lv.found[k] = ok
					if ok {
						lv.labels[k] = decodeUint64(old[c.layout.labelAt:])
					}
					return old, ok
				})
			}
			if k == len(lv.reads) {
				lv.coverSets = append(lv.coverSets, t.st.cover[j])
				lv.reads = append(lv.reads, oram.Access{Store: cv.secondary, Fn: lv.readers[k]})
			}
			at[j] = k
		}
		lv.at = append(lv.at, at)
	}
	return lv
}

// levelStep runs the loop body of Algorithms 1, 2 and 4 for record id on every
// target of the level, and is the one place a record's accesses are sent from
// — a fill's with its group, an insertion's with the single set it is
// stepping. Each distinct cover's ID ORAM hands over the record's label in one
// round (Algorithm 2, lines 4–6); the covers' write-backs travel with the
// targets' own fetches, keyed by singleKeys or by the pair of labels; the
// targets' write-backs are the last round, and only then does any card_X move.
func (c *oramCore) levelStep(lv *level, id int, singleKeys []uint64) error {
	rid := idKey(id)
	if len(lv.reads) > 0 {
		for k := range lv.reads {
			lv.reads[k].Key = rid
		}
		if err := c.pipe.Do(lv.reads...); err != nil {
			return inAccess(fmt.Errorf("core: O^%s read: %w", c.layout.secondary, err), func(i int) string {
				return fmt.Sprintf("attribute set %v as cover of level %d", lv.coverSets[i], lv.size)
			})
		}
		for k, ok := range lv.found[:len(lv.reads)] {
			if !ok { // no target has been touched
				return errors.Join(fmt.Errorf("%w: id %d missing from subset partition %v", ErrNotMaterialized, id, lv.coverSets[k]), c.pipe.Flush())
			}
		}
	}
	lv.accesses, lv.commits = lv.accesses[:0], lv.commits[:0]
	for i, t := range lv.targets {
		var key uint64
		if lv.size == 1 {
			key = singleKeys[i]
		} else {
			key = unionKey(lv.labels[lv.at[i][0]], lv.labels[lv.at[i][1]])
		}
		primary, secondary, commit := c.layout.step(t.st, rid, key)
		lv.accesses, lv.commits = append(lv.accesses, primary, secondary), append(lv.commits, commit)
	}
	err := c.pipe.Do(lv.accesses...)
	if err == nil {
		err = c.pipe.Flush()
	}
	if err != nil {
		return inAccess(fmt.Errorf("core: O^%s/O^%s step: %w", c.layout.primary, c.layout.secondary, err), func(i int) string {
			return fmt.Sprintf("attribute set %v", lv.targets[i/2].set)
		})
	}
	for _, commit := range lv.commits {
		commit()
	}
	return nil
}

// inAccess names the structure a round's error arose in, when the pipeline
// says which of the round's accesses it was.
func inAccess(err error, where func(i int) string) error {
	var at *oram.AccessError
	if !errors.As(err, &at) {
		return err
	}
	return describeSet(err, where(at.Index))
}

// eachLive visits the live record ids in ascending order, at most
// obsort.ChunkCells of them per call — the bound on what a fill holds of a
// column at a time. The slice is reused between calls.
func (c *oramCore) eachLive(visit func(ids []int64) error) error {
	ids := make([]int64, 0, obsort.ChunkCells)
	for id, n := 0, c.edb.NumRows(); id < n; id++ {
		if c.dead[id] {
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

// fill is Algorithm 1 (|X| = 1) or Algorithm 2 (Algorithm 4 and its
// multi-attribute variant, which obtains key_X the same way) for a group of
// sets, with the loop over the records outermost. The columns of a group of
// single attributes are fetched a chunk of cells per round each, as the sort
// engine fetches them; the server records the same one access per cell, in the
// same ascending order, as it does for a round per record.
func (c *oramCore) fill(group []target[*oramState]) error {
	lv := c.lay(new(level), group)
	if g, w := c.Telemetry.Gauge("oblivfd_level_width"), int64(len(group)); w > g.Value() {
		g.Set(w)
	}
	var vals [][]string
	var keys []uint64
	if lv.size == 1 {
		vals, keys = make([][]string, len(group)), make([]uint64, len(group))
	}
	return c.eachLive(func(ids []int64) error {
		for i := range vals {
			var err error
			if vals[i], err = c.edb.CellValuesAt(ids, group[i].set.First()); err != nil {
				return err
			}
		}
		for k, id := range ids {
			for i := range keys {
				keys[i] = singleKey(c.edb.cipher, vals[i][k])
			}
			if err := c.levelStep(lv, int(id), keys); err != nil {
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

// insert appends row to the database and continues the traversal for it
// across every materialized set: a set at a time and in subset-before-superset
// order, so Algorithm 2's key construction finds fresh labels (§IV-C(c)).
//
// When an insertion fails after the row has been appended, the id stays taken
// and is dead: never traversed or counted, and the next insertion gets the
// next id. The sets stepped before the failure have counted the record, a set
// stepped after has not, and a set whose write-back round was lost refuses
// further use — so the partitions no longer describe one relation: release
// them and materialize again.
func (c *oramCore) insert(row relation.Row, hook func(relation.AttrSet, time.Duration)) (int, error) {
	id, err := c.edb.AppendRow(row)
	if err != nil {
		return 0, err
	}
	lv, group, key := new(level), make([]target[*oramState], 1), make([]uint64, 1)
	err = c.eachSet(hook, func(x relation.AttrSet, st *oramState) error {
		group[0] = target[*oramState]{set: x, st: st}
		if x.Size() == 1 {
			var err error
			if key[0], err = c.singleKeyFor(id, x.First()); err != nil {
				return err
			}
		} else {
			for j, cv := range st.cover {
				var ok bool
				if group[0].cover[j], ok = c.sets[cv]; !ok {
					return fmt.Errorf("%w: cover of %v was released; dynamic use requires keeping partitions", ErrNotMaterialized, x)
				}
			}
		}
		return c.levelStep(c.lay(lv, group), id, key)
	})
	if err != nil {
		c.dead[id] = true
		return 0, err
	}
	return id, nil
}

// CheckpointState implements CheckpointableEngine: every materialized set's
// cardinality, cover and ORAM client states, deep-captured in cover-before-union
// order so resume can rebuild dependencies in sequence, and the dead ids.
func (c *oramCore) CheckpointState() *EngineState {
	es := &EngineState{Kind: c.layout.kind, Instance: c.instance, Seq: c.seq.Load()}
	for id := range c.dead {
		es.Dead = append(es.Dead, id)
	}
	sort.Ints(es.Dead)
	for _, x := range c.setsBySize() {
		st := c.sets[x]
		es.Sets = append(es.Sets, SetState{
			Set:       x,
			Card:      st.card,
			NextLabel: st.nextLabel,
			Cover:     st.cover,
			Primary:   st.primary.State(),
			Secondary: st.secondary.State(),
		})
	}
	return es
}

// resume is init from checkpointed state: every set's ORAM handles are
// reattached to their existing server-side objects. The server must hold
// exactly the storage state it had at capture time (see the consistency
// contract in checkpoint.go).
func (c *oramCore) resume(edb *EncryptedDB, es *EngineState, layout oramLayout) error {
	c.init(edb, es.Instance, layout)
	c.seq.Store(es.Seq)
	for i, id := range es.Dead {
		if !c.live(id) || i > 0 && id <= es.Dead[i-1] {
			return fmt.Errorf("%w: dead ids %v are not ascending row numbers below %d", ErrCorruptCheckpoint, es.Dead, edb.NumRows())
		}
		c.dead[id] = true
	}
	for _, s := range es.Sets {
		primary, err := oram.Resume(edb.svc, edb.cipher, s.Primary)
		if err != nil {
			return fmt.Errorf("core: resuming O^%s for %v: %w", layout.primary, s.Set, err)
		}
		secondary, err := oram.Resume(edb.svc, edb.cipher, s.Secondary)
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
