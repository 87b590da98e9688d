package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/obsort"
	"github.com/oblivfd/oblivfd/internal/oram"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
)

// oramLayout is what distinguishes §IV-C's pair of structures from §V's, as
// data. For each materialized attribute set X an ORAM engine keeps
//
//	a primary   ORAM keyed by key_X  (it counts distinct keys), and
//	a secondary map  keyed by r[ID]  (it feeds the supersets of X):
//
//	OrEngine  O_X^KL  : key_X → label_X            O_X^IL  : r[ID] → label_X, an array
//	ExEngine  O_X^KLF : key_X → (label_X, fre_X)   O_X^IKL : r[ID] → (key_X, label_X), an ORAM
//
// Or-ORAM addresses its secondary in a public order only — fills visit the
// live ids ascending, an insertion appends id n, and nothing is deleted — so
// O^IL is a sealed positional array, one label cell per record id, where
// Algorithms 1 and 2 keep an ORAM (DESIGN.md §2, §11). Ex-ORAM deletes by an
// id it has to hide (§V-C), so O^IKL stays an ORAM.
type oramLayout struct {
	kind               string // EngineState.Kind, and the checkpoint's claim on who may resume it
	primary, secondary string // object-name suffixes, also used in error wording
	valueWidth         int    // bytes per value, the same in both ORAMs
	labelAt            int    // where label_X sits inside the secondary's value
	// positional says the secondary is a label array: read and written a chunk
	// of ids per round around the records' steps, never accessed in them.
	positional bool
	// step is the loop body for one record with its key_X already built: the
	// primary's read-modify-write, whose Landed moves the set's card_X once
	// the chunk's write-backs are on the server, and the secondary's write
	// when the secondary is an ORAM. The record's label_X is left in label.
	// levelStep sends them.
	step func(st *oramState, id string, key uint64, label *uint64) (primary, secondary oram.Access)
}

var (
	orLayout = oramLayout{kind: engineKindOr, primary: "KL", secondary: "IL", valueWidth: labelWidth, positional: true, step: orStep}
	exLayout = oramLayout{kind: engineKindEx, primary: "KLF", secondary: "IKL", valueWidth: keyWidth + labelWidth, labelAt: keyWidth, step: exStep}
)

// oramState is one materialized set of an ORAM engine.
type oramState struct {
	primary   *oram.ORAM
	secondary *oram.ORAM // O^IKL; nil in Or-ORAM, whose secondary is labels
	labels    string     // O^IL: the name of Or-ORAM's label array
	card      uint64     // |π_X|
	nextLabel uint64     // ExEngine's monotone label source
	// pending counts the fresh labels drawn by accesses whose write-backs
	// have not landed: the next fresh label is card + pending in OrEngine,
	// nextLabel + pending in ExEngine, and each landing moves one from
	// pending into card (and nextLabel).
	pending uint64
	cover   [2]relation.AttrSet // the Property 1 subsets; zero for singletons
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

// labelAD binds label_X of record id to its cell of the label array name. A
// cell is written once — by the fill that labels the record or by the
// insertion that appends it — so, as with cellAD, binding the location
// leaves the server no older ciphertext of the same cell to replay.
func labelAD(name string, id int64) []byte { return fmt.Appendf(nil, "lab:%s:%d", name, id) }

// levelWidth is the most sets of one lattice level the ORAM engines step
// together. A chunk's round then holds at most r·(2·levelWidth + c) paths of
// ≈ 2.5 KB (r ≤ obsort.ChunkCells records, c ≤ 2·levelWidth distinct covers),
// which keeps what the client buffers per round independent of n and of
// C(m, m/2); a wider level is cut into groups of this many, in request order.
// The value is from the sweep in EXPERIMENTS.md ("ORAM rounds"), made when a
// round held one record's 2w + c paths: a level's rounds fell as 1/width, and
// at 16 a round's ≈ 50 paths already took five times the paper's LAN round
// trip to transfer, so each further doubling bought under a tenth of the
// level's time for twice the buffer. Since a chunk shares a round, a level's
// rounds are 3 a chunk per group whatever the width, and the width only
// bounds the round's size.
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
// run it once per group of w sets of one lattice level, a chunk of r ≤
// obsort.ChunkCells live ids at a time (stepChunk): what sits at public
// addresses — the columns' cells, Or-ORAM's label arrays — moves a chunk per
// round, each of the c distinct covers the group names is read once a record,
// however many targets name it, and a chunk's accesses to one tree are one
// batch (oram.Pipeline): their leaves are known before anything is fetched,
// so the chunk's fetches share one round and its write-backs the next, a key
// the batch names again or does not hold fetching a fresh uniform leaf. The
// records' functions run in record order on the client, so record i + 1 sees
// what record i left and counts its fresh label (oramState.pending). Where
// Algorithms 1, 2 and 4 read key_X's pair and then write it, a step makes one
// read-modify-write access (oram.ORAM.Update). Per chunk, with P a target's
// primary, S its secondary, c₁ … the covers' and ·r a phase taken for each of
// the chunk's records in turn:
//
//	Or-ORAM   [cells of the columns | of c₁ … c_c]
//	          → [ReadPath P₁, … P_w]·r
//	          → [WritePath P₁, … P_w]·r [cells of S₁, … S_w]
//	Ex-ORAM   |X| = 1: [cells of the columns]
//	          → [ReadPath P₁, ReadPath S₁, … P_w, S_w]·r
//	          → [WritePath P₁, WritePath S₁, … P_w, S_w]·r
//	          |X| ≥ 2: [ReadPath c₁, … c_c]·r
//	          → [WritePath c₁, … c_c]·r [ReadPath P₁, ReadPath S₁, … P_w, S_w]·r
//	          → [WritePath P₁, WritePath S₁, … P_w, S_w]·r
//
// 3 rounds a chunk, every one of them; r·w accesses for Or-ORAM, 2r·w or
// r·(2w + c) for Ex-ORAM, and a round holds up to r·(2w + c) paths. What w, c
// and r are, and which structures stand where in a round, follows from the
// request list — the lattice, a function of (m, FDs) — and n, and from nothing
// fetched. A set's card_X moves when the round carrying its records'
// write-backs lands (oram.Access.Landed).
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
	// pipe fuses the server calls of a chunk's accesses into one round per
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
		if st.secondary != nil {
			st.secondary.SetTelemetry(reg)
		}
	}
}

// prepare sets up the set's primary ORAM and its secondary: an ORAM, or a
// label array of the database's capacity. Set-up is a deterministic linear
// pass, and doing it here — serially, in job order — is what gives a batch
// the object names and sequence numbers of the serial run.
func (c *oramCore) prepare(x relation.AttrSet, cover [2]relation.AttrSet) (*oramState, error) {
	seq := c.seq.Add(1)
	name := func(suffix string) string { return fmt.Sprintf("%s:%d:%s", c.instance, seq, suffix) }
	cfg := oram.Config{Capacity: c.capacity, KeyWidth: keyWidth, ValueWidth: c.layout.valueWidth, Metrics: c.Telemetry}
	st := &oramState{cover: cover}
	var err error
	if st.primary, err = oram.Setup(c.edb.svc, c.edb.cipher, name(c.layout.primary), cfg); err != nil {
		return nil, fmt.Errorf("core: setting up O^%s for %v: %w", c.layout.primary, x, err)
	}
	if c.layout.positional {
		st.labels = name(c.layout.secondary)
		if err = c.edb.svc.CreateArray(st.labels, c.capacity); err != nil {
			_ = c.edb.svc.Delete(st.labels) // it may exist if only the answer was lost
		}
	} else {
		st.secondary, err = oram.Setup(c.edb.svc, c.edb.cipher, name(c.layout.secondary), cfg)
	}
	if err != nil {
		_ = st.primary.Destroy() // best effort; the set-up error is the one to report
		return nil, fmt.Errorf("core: setting up O^%s for %v: %w", c.layout.secondary, x, err)
	}
	return st, nil
}

func (c *oramCore) destroy(st *oramState) error {
	if st.secondary == nil {
		return errors.Join(st.primary.Destroy(), c.edb.svc.Delete(st.labels))
	}
	return errors.Join(st.primary.Destroy(), st.secondary.Destroy())
}

// level is a group of targets of one lattice level being stepped together:
// the distinct covers they name, and one chunk's worth of scratch. The
// per-record buffers are obsort.ChunkCells wide, so what a fill holds is
// independent of n: (c + w) labels and, at level 1, w keys per record.
type level struct {
	size      int // |X| of every target, the lattice level
	targets   []target[*oramState]
	covers    []*oramState       // the distinct covers the targets name, in order of first mention
	coverSets []relation.AttrSet // the covers' names, for errors
	at        [][2]int           // targets[i]'s covers are covers[at[i][0]] and covers[at[i][1]]
	keys      [][]uint64         // key_X of each single-attribute target, per record of the chunk
	labels    [][]uint64         // label_c of each cover, per record of the chunk
	out       [][]uint64         // label_X the steps gave each target, per record of the chunk
	rids      []string           // the chunk's records' ID keys
	// Ex-ORAM's cover round: readers[k][rec] notes what the access to cover
	// k's ID ORAM for the chunk's record rec found in labels[k][rec] and
	// found[k][rec] (oramCore.reader).
	readers  [][]oram.UpdateFunc
	found    [][]bool
	accesses []oram.Access // the round being built
}

// chunkRows returns n rows of obsort.ChunkCells values, reusing buf's.
func chunkRows[T any](buf [][]T, n int) [][]T {
	for len(buf) < n {
		buf = append(buf, make([]T, obsort.ChunkCells))
	}
	return buf[:n]
}

// lay lays a group out in lv for stepChunk. It reuses what lv holds from an
// earlier group, which is how an insertion steps one set after another
// without building a level for each.
func (c *oramCore) lay(lv *level, group []target[*oramState]) *level {
	lv.size, lv.targets = group[0].set.Size(), group
	lv.covers, lv.coverSets, lv.at = lv.covers[:0], lv.coverSets[:0], lv.at[:0]
	if lv.size == 1 {
		lv.keys = chunkRows(lv.keys, len(group))
	} else {
		for _, t := range group {
			var at [2]int
			for j, cv := range t.cover {
				k := slices.Index(lv.covers, cv)
				if k < 0 {
					k = len(lv.covers)
					lv.covers, lv.coverSets = append(lv.covers, cv), append(lv.coverSets, t.st.cover[j])
				}
				at[j] = k
			}
			lv.at = append(lv.at, at)
		}
	}
	lv.labels, lv.out = chunkRows(lv.labels, len(lv.covers)), chunkRows(lv.out, len(group))
	if !c.layout.positional {
		lv.found = chunkRows(lv.found, len(lv.covers))
	}
	return lv
}

// reader returns the function that notes what cover k's ID ORAM holds for
// the chunk's record rec in lv.labels[k][rec] and lv.found[k][rec], made the
// first time a level asks for it.
func (c *oramCore) reader(lv *level, k, rec int) oram.UpdateFunc {
	for len(lv.readers) <= k {
		lv.readers = append(lv.readers, nil)
	}
	for r := len(lv.readers[k]); r <= rec; r++ {
		lv.readers[k] = append(lv.readers[k], func(old []byte, ok bool) ([]byte, bool) {
			lv.found[k][r] = ok
			if ok {
				lv.labels[k][r] = decodeUint64(old[c.layout.labelAt:])
			}
			return old, ok
		})
	}
	return lv.readers[k][rec]
}

// stepChunk runs the loop body of Algorithms 1, 2 and 4 for the records ids
// on every target of the level — a fill's chunk with its group, an insertion's
// one record with the single set it is stepping: readChunk's round, levelStep's
// one or two, and writeLabels' round, which carries the chunk's write-backs.
// An insertion passes its row, which holds its single keys. Whatever happens,
// the pipeline owes nothing after it.
func (c *oramCore) stepChunk(lv *level, ids []int64, row relation.Row) error {
	err := c.readChunk(lv, ids, row)
	if err == nil {
		err = c.levelStep(lv, ids)
	}
	if err == nil {
		err = c.writeLabels(lv, ids)
	}
	// Write-backs are still owed only when a call was refused before it was
	// sent; flushing an empty pipeline sends nothing.
	if ferr := c.pipe.Flush(); ferr != nil {
		err = errors.Join(err, ferr)
	}
	return err
}

// writeLabels sends the chunk's last round: the write-backs its records still
// owe and, in Or-ORAM, the labels the chunk's steps gave its records,
// to the targets' label arrays. Ex-ORAM's steps wrote theirs to O^IKL.
func (c *oramCore) writeLabels(lv *level, ids []int64) error {
	var ops []store.BatchOp
	if c.layout.positional {
		ops = make([]store.BatchOp, len(lv.targets))
	}
	for i, t := range lv.targets[:len(ops)] {
		slab := make([]byte, 0, len(ids)*(labelWidth+crypto.Overhead))
		cts := make([][]byte, len(ids))
		var pt [labelWidth]byte
		for rec, id := range ids {
			binary.BigEndian.PutUint64(pt[:], lv.out[i][rec])
			off := len(slab)
			var err error
			if slab, err = c.edb.cipher.SealTo(slab, pt[:], labelAD(t.st.labels, id)); err != nil {
				return err
			}
			cts[rec] = slab[off:len(slab):len(slab)]
		}
		ops[i] = store.BatchOp{Write: true, Name: t.st.labels, Idx: ids, Cts: cts}
	}
	if err := c.pipe.Flush(ops...); err != nil {
		return fmt.Errorf("core: O^%s/O^%s write-back: %w", c.layout.primary, c.layout.secondary, err)
	}
	return nil
}

// readChunk fetches in one round what the chunk's steps need from public
// addresses: the cells of a group of single attributes' columns, which give
// their keys, or Or-ORAM covers' label cells. An insertion's single keys come
// from its row and need no round; Ex-ORAM's covers are ORAMs, which levelStep
// reads.
func (c *oramCore) readChunk(lv *level, ids []int64, row relation.Row) error {
	var ops []store.BatchOp
	switch {
	case lv.size == 1 && row != nil:
		for i, t := range lv.targets {
			lv.keys[i][0] = singleKey(c.edb.cipher, row[t.set.First()])
		}
		return nil
	case lv.size == 1:
		for _, t := range lv.targets {
			ops = append(ops, store.BatchOp{Name: c.edb.columnName(t.set.First()), Idx: ids})
		}
	case c.layout.positional:
		for _, cv := range lv.covers {
			ops = append(ops, store.BatchOp{Name: cv.labels, Idx: ids})
		}
	default:
		return nil
	}
	res, err := store.DoBatch(c.edb.svc, ops)
	if err == nil && len(res) != len(ops) {
		err = fmt.Errorf("batch of %d reads answered with %d results", len(ops), len(res))
	}
	if err != nil {
		return fmt.Errorf("core: reading %d records' cells: %w", len(ids), err)
	}
	for j, cts := range res {
		if len(cts) != len(ids) {
			return fmt.Errorf("core: %q answered %d cells for %d records", ops[j].Name, len(cts), len(ids))
		}
		if lv.size == 1 {
			t := lv.targets[j]
			vals, err := c.edb.openCells(cts, ids, t.set.First())
			if err != nil {
				return describeSet(err, fmt.Sprintf("attribute set %v", t.set))
			}
			for rec, v := range vals {
				lv.keys[j][rec] = singleKey(c.edb.cipher, v)
			}
			continue
		}
		for rec, ct := range cts {
			pt, err := c.edb.cipher.Open(ct, labelAD(ops[j].Name, ids[rec]))
			if err == nil && len(pt) != labelWidth {
				err = fmt.Errorf("%d-byte label", len(pt))
			}
			if err != nil {
				return describeSet(fmt.Errorf("core: O^%s read: label of id %d failed verification: %v: %w", c.layout.secondary, ids[rec], err, store.ErrIntegrity),
					fmt.Sprintf("attribute set %v as cover of level %d", lv.coverSets[j], lv.size))
			}
			lv.labels[j][rec] = decodeUint64(pt)
		}
	}
	return nil
}

// levelStep sends the accesses of the chunk's records ids on every target of
// the level, and is the one place they are sent from. In Ex-ORAM each
// distinct cover's ID ORAM first hands over the records' labels (Algorithm 2,
// lines 4–6) in one round, and the covers' write-backs travel with the
// targets' own fetches; Or-ORAM's cover labels came with the chunk. A target's
// key is its single key or the pair of its covers' labels. All of a chunk's
// accesses to a tree are one batch (oram.Pipeline), in record order: the
// records' functions run in that order, so each sees what the records before
// it left, and a fresh label drawn for one is counted by the next
// (oramState.pending). The targets' write-backs stay owed: they lead the
// chunk's last round, and card_X moves when they land.
func (c *oramCore) levelStep(lv *level, ids []int64) error {
	lv.rids = lv.rids[:0]
	for _, id := range ids {
		lv.rids = append(lv.rids, idKey(int(id)))
	}
	if !c.layout.positional && len(lv.covers) > 0 {
		lv.accesses = lv.accesses[:0]
		for rec, rid := range lv.rids {
			for k, cv := range lv.covers {
				lv.accesses = append(lv.accesses, oram.Access{Store: cv.secondary, Key: rid, Fn: c.reader(lv, k, rec)})
			}
		}
		if err := c.pipe.Do(lv.accesses...); err != nil {
			return inAccess(fmt.Errorf("core: O^%s read: %w", c.layout.secondary, err), func(i int) string {
				return fmt.Sprintf("attribute set %v as cover of level %d", lv.coverSets[i%len(lv.covers)], lv.size)
			})
		}
		for rec, id := range ids {
			for k := range lv.covers {
				if !lv.found[k][rec] { // no target has been touched for this chunk
					return fmt.Errorf("%w: id %d missing from subset partition %v", ErrNotMaterialized, id, lv.coverSets[k])
				}
			}
		}
	}
	lv.accesses = lv.accesses[:0]
	for rec, rid := range lv.rids {
		for i, t := range lv.targets {
			var key uint64
			if lv.size == 1 {
				key = lv.keys[i][rec]
			} else {
				key = unionKey(lv.labels[lv.at[i][0]][rec], lv.labels[lv.at[i][1]][rec])
			}
			primary, secondary := c.layout.step(t.st, rid, key, &lv.out[i][rec])
			lv.accesses = append(lv.accesses, primary)
			if !c.layout.positional {
				lv.accesses = append(lv.accesses, secondary)
			}
		}
	}
	if err := c.pipe.Do(lv.accesses...); err != nil {
		structures, perTarget := "O^"+c.layout.primary, 1
		if !c.layout.positional {
			structures, perTarget = structures+"/O^"+c.layout.secondary, 2
		}
		return inAccess(fmt.Errorf("core: %s step: %w", structures, err), func(i int) string {
			return fmt.Sprintf("attribute set %v", lv.targets[i/perTarget%len(lv.targets)].set)
		})
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
// sets, with the loop over the records outermost and the records taken a
// chunk at a time. The server records the same one access per cell, in the
// same ascending order per array, as it would for a round per record, and
// the same accesses per tree, a chunk's fetches before its write-backs.
func (c *oramCore) fill(group []target[*oramState]) error {
	lv := c.lay(new(level), group)
	if g, w := c.Telemetry.Gauge("oblivfd_level_width"), int64(len(group)); w > g.Value() {
		g.Set(w)
	}
	return c.eachLive(func(ids []int64) error { return c.stepChunk(lv, ids, nil) })
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
// order, so Algorithm 2's key construction finds fresh labels (§IV-C(c)). The
// single keys come from row, never from reading back the cells just written.
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
	lv, group, ids := new(level), make([]target[*oramState], 1), []int64{int64(id)}
	err = c.eachSet(hook, func(x relation.AttrSet, st *oramState) error {
		group[0] = target[*oramState]{set: x, st: st}
		if x.Size() > 1 {
			for j, cv := range st.cover {
				var ok bool
				if group[0].cover[j], ok = c.sets[cv]; !ok {
					return fmt.Errorf("%w: cover of %v was released; dynamic use requires keeping partitions", ErrNotMaterialized, x)
				}
			}
		}
		return c.stepChunk(c.lay(lv, group), ids, row)
	})
	if err != nil {
		c.dead[id] = true
		return 0, err
	}
	return id, nil
}

// CheckpointState implements CheckpointableEngine: every materialized set's
// cardinality, cover, ORAM client states and label array, deep-captured in
// cover-before-union order so resume can rebuild dependencies in sequence,
// and the dead ids.
func (c *oramCore) CheckpointState() *EngineState {
	es := &EngineState{Kind: c.layout.kind, Instance: c.instance, Seq: c.seq.Load()}
	for id := range c.dead {
		es.Dead = append(es.Dead, id)
	}
	sort.Ints(es.Dead)
	for _, x := range c.setsBySize() {
		st := c.sets[x]
		s := SetState{Set: x, Card: st.card, NextLabel: st.nextLabel, Cover: st.cover, Primary: st.primary.State(), Labels: st.labels}
		if st.secondary != nil {
			s.Secondary = st.secondary.State()
		}
		es.Sets = append(es.Sets, s)
	}
	return es
}

// resume is init from checkpointed state: every set's ORAM handles are
// reattached to their existing server-side objects. The server must hold
// exactly the storage state it had at capture time (see the consistency
// contract in checkpoint.go). An Or-ORAM state whose sets keep an ID ORAM was
// written by a build that ran literal Algorithms 1 and 2 and is refused.
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
		switch {
		case layout.positional && s.Secondary != nil:
			return fmt.Errorf("%w: %v keeps O^IL as an ORAM, where this build keeps a label array; commit a6b2aef was the last to resume such a state", ErrCorruptCheckpoint, s.Set)
		case layout.positional && s.Labels == "":
			return fmt.Errorf("%w: %v names no label array", ErrCorruptCheckpoint, s.Set)
		}
		st := &oramState{labels: s.Labels, card: s.Card, nextLabel: s.NextLabel, cover: s.Cover}
		var err error
		if st.primary, err = oram.Resume(edb.svc, edb.cipher, s.Primary); err != nil {
			return fmt.Errorf("core: resuming O^%s for %v: %w", layout.primary, s.Set, err)
		}
		if !layout.positional {
			if st.secondary, err = oram.Resume(edb.svc, edb.cipher, s.Secondary); err != nil {
				return fmt.Errorf("core: resuming O^%s for %v: %w", layout.secondary, s.Set, err)
			}
		}
		c.sets[s.Set] = st
	}
	return nil
}

// ClientMemoryBytes implements Engine: the stashes and position maps.
func (c *oramCore) ClientMemoryBytes() int {
	total := 0
	for _, st := range c.sets {
		total += st.primary.ClientMemoryBytes()
		if st.secondary != nil {
			total += st.secondary.ClientMemoryBytes()
		}
	}
	return total
}
