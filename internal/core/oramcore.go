package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

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
// Keys are keyWidth (8) bytes; labels and frequencies labelWidth (4), so a
// value is 4 bytes in O^KL, 8 in O^KLF and 12 in O^IKL, and an O^IL cell is
// a 4-byte label sealed (DESIGN.md §11).
//
// Or-ORAM addresses its secondary in a public order only — fills visit the
// ids ascending, an insertion appends id n, and nothing is deleted — so
// O^IL is a sealed positional array, one label cell per record id, where
// Algorithms 1 and 2 keep an ORAM (DESIGN.md §2, §11). Ex-ORAM deletes by an
// id it has to hide (§V-C), so O^IKL stays an ORAM.
type oramLayout struct {
	proto              Protocol // its name is EngineState.Kind, the checkpoint's claim on who may resume it
	primary, secondary string   // object-name suffixes, also used in error wording
	// primaryWidth and secondaryWidth are the bytes of a value in the primary
	// ORAM and, when the secondary is one, in the secondary.
	primaryWidth, secondaryWidth int
	labelAt                      int // where label_X sits inside the secondary's value
	// positional says the secondary is a label array: read and written a chunk
	// of ids per round around the records' steps, never accessed in them.
	positional bool
	// step is the loop body for one record with its key_X already built: the
	// primary's read-modify-write, which counts a fresh label in the set's
	// pending, and the secondary's write when the secondary is an ORAM. The
	// record's label_X is left in label. levelStep sends them.
	step func(st *oramState, id string, key uint64, label *uint64) (primary, secondary oram.Access)
}

var (
	orLayout = oramLayout{proto: ProtocolORAM, primary: "KL", secondary: "IL", primaryWidth: labelWidth, positional: true, step: orStep}
	exLayout = oramLayout{proto: ProtocolDynamicORAM, primary: "KLF", secondary: "IKL", primaryWidth: 2 * labelWidth,
		secondaryWidth: keyWidth + labelWidth, labelAt: keyWidth, step: exStep}
)

// oramState is one materialized set of an ORAM engine.
type oramState struct {
	primary   *oram.ORAM
	secondary *oram.ORAM // O^IKL; nil in Or-ORAM, whose secondary is labels
	labels    string     // O^IL: the name of Or-ORAM's label array
	card      uint64     // |π_X|
	nextLabel uint64     // ExEngine's monotone label source
	// pending counts the fresh labels drawn by the level being stepped: the
	// next fresh label is card + pending in OrEngine, nextLabel + pending in
	// ExEngine, and stepChunks moves them all into card (and nextLabel) once
	// the level's last write-backs are on the server.
	pending uint64
	cover   [2]relation.AttrSet // the Property 1 subsets; zero for singletons
	// val is where a step builds the value an access stores; a store copies
	// it before the next one is built.
	val [keyWidth + labelWidth]byte
}

func (st *oramState) cardinality() int { return int(st.card) }

// labelFre packs ExEngine's O^KLF value, label_X ∥ fre_X, into the state's
// scratch.
func (st *oramState) labelFre(label, fre uint64) []byte {
	putLabel(st.val[:labelWidth], label)
	putLabel(st.val[labelWidth:], fre)
	return st.val[:2*labelWidth]
}

// keyLabel packs ExEngine's O^IKL value, key_X ∥ label_X, into the state's
// scratch.
func (st *oramState) keyLabel(key, label uint64) []byte {
	binary.BigEndian.PutUint64(st.val[:keyWidth], key)
	putLabel(st.val[keyWidth:], label)
	return st.val[:keyWidth+labelWidth]
}

// labelPlace binds label_X of record id to its cell of the label array name,
// as "lab:<name>:<id>". A cell is written once — by the fill that labels the
// record or by the insertion that appends it — so, as with cellPlace,
// binding the location leaves the server no older ciphertext of the same
// cell to replay.
func labelPlace(name string) crypto.Place { return crypto.NewPlace("lab:" + name + ":") }

// levelWidth is the most sets of one lattice level the ORAM engines step
// together. A round then holds at most r·(2·levelWidth + c) paths of ≈ 2.5 KB
// fetched and as many written back (r ≤ obsort.ChunkCells records, c ≤
// 2·levelWidth distinct covers; the write-backs are the chunk before's),
// which keeps what the client buffers per round independent of n and of
// C(m, m/2); a wider level is cut into groups of this many, in request order.
// The value is from the sweep in EXPERIMENTS.md ("ORAM rounds"), made when a
// round held one record's 2w + c paths: a level's rounds fell as 1/width, and
// at 16 a round's ≈ 50 paths already took five times the paper's LAN round
// trip to transfer, so each further doubling bought under a tenth of the
// level's time for twice the buffer. Since a chunk shares a round and chunks
// overlap, a level's rounds are ⌈n/r⌉ + 2 per group whatever the width, and
// the width only bounds the round's size.
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
// obsort.ChunkCells ids at a time (eachChunk, stepChunks): what sits at public
// addresses — the columns' cells, Or-ORAM's label arrays — moves a chunk per
// round, each of the c distinct covers the group names is read once a record,
// however many targets name it, and a chunk's accesses to one tree are one
// batch (oram.Pipeline): their leaves are known before anything is fetched,
// so the chunk's fetches share one round and its write-backs the next, a key
// the batch names again or does not hold fetching a fresh uniform leaf. The
// records' functions run in record order on the client, so record i + 1 sees
// what record i left and counts its fresh label (oramState.pending). Where
// Algorithms 1, 2 and 4 read key_X's pair and then write it, a step makes one
// read-modify-write access (oram.ORAM.Update). A chunk has three stages, with
// P a target's primary, S its secondary, c₁ … the covers', R a tree's fetch
// of the chunk's r records' paths and W its write-back (one cell op each, the
// top ⌈log₂ r⌉ levels read once: oram.Pipeline):
//
//	          read                      step                         write
//	Or-ORAM   [cells of the columns     [R P₁, … P_w]                [W P₁, … P_w] [cells of S₁, … S_w]
//	           | of c₁ … c_c]
//	Ex-ORAM   |X| = 1: [cells of the    [R P₁, R S₁, … P_w, S_w]     [W P₁, W S₁, … P_w, S_w]
//	           columns]
//	          |X| ≥ 2: [R c₁, … c_c]    [W c₁, … c_c] [R P₁, R S₁,   [W P₁, W S₁, … P_w, S_w]
//	                                     … P_w, S_w]
//
// and round j of a group carries chunk j − 2's write, chunk j − 1's step and
// chunk j's read (levelStep): the owed write-backs first, then the fetches,
// then the cells, so a level of N chunks takes N + 2 rounds a group, and a
// chunk alone — an insertion's record — the 2 or 3 of its stages that send
// anything. r·w accesses for Or-ORAM, 2r·w or r·(2w + c) for Ex-ORAM, per
// chunk; a round holds up to r·(2w + c) paths fetched and as many written
// back. What w, c and r are, and which structures stand where in a round,
// follows from the request list — the lattice, a function of (m, FDs) — and
// n, and from nothing fetched. A set's card_X moves when the round carrying
// the level's last write-backs lands (stepChunks).
type oramCore struct {
	setTable[*oramState]
	edb      *EncryptedDB
	instance string
	// metrics, if non-nil, instruments every ORAM the engine builds or
	// resumes (path read/write counters, access spans, stash gauge).
	metrics  *telemetry.Registry
	capacity int
	seq      atomic.Int64 // unique ORAM-name counter across the engine's life
	layout   oramLayout
	// pipe fuses the server calls of a chunk's accesses into one round per
	// phase. The engine steps one group of a fill or an insertion, or one
	// deletion, at a time, so one pipeline serves them all.
	pipe *oram.Pipeline
	// dead holds the ids of the database's rows that no set counts:
	// insertions that failed after their row was appended and, in ExEngine,
	// deleted records. Ids are public row numbers, and Algorithms 1, 2 and 4
	// visit them in ascending order (eachChunk), a dead one as a dummy step
	// or not at all.
	dead map[int]bool
}

// init wires a core that is embedded in its engine.
func (c *oramCore) init(edb *EncryptedDB, instance string, layout oramLayout, reg *telemetry.Registry) {
	c.setTable = newSetTable[*oramState](c, levelAtATime)
	c.edb, c.instance, c.capacity, c.layout, c.metrics = edb, instance, edb.Capacity(), layout, reg
	c.pipe = oram.NewPipeline(edb.svc)
	c.dead = make(map[int]bool)
}

// NumRows implements Engine: the records traversed.
func (c *oramCore) NumRows() int { return c.edb.NumRows() - len(c.dead) }

// live reports whether id names a record to traverse.
func (c *oramCore) live(id int) bool { return id >= 0 && id < c.edb.NumRows() && !c.dead[id] }

// prepare builds the client half of the set's primary ORAM and its
// secondary — an ORAM, or a label array of the database's capacity — and
// sends nothing: the group's fill puts them on the server (setUp). Naming them
// here — serially, in job order — is what gives a batch the object names and
// sequence numbers of the serial run.
func (c *oramCore) prepare(x relation.AttrSet, cover [2]relation.AttrSet) (*oramState, error) {
	seq := c.seq.Add(1)
	name := func(suffix string) string { return fmt.Sprintf("%s:%d:%s", c.instance, seq, suffix) }
	cfg := oram.Config{Capacity: c.capacity, KeyWidth: keyWidth, ValueWidth: c.layout.primaryWidth, Metrics: c.metrics}
	st := &oramState{cover: cover}
	var err error
	if st.primary, err = oram.New(c.edb.svc, c.edb.cipher, name(c.layout.primary), cfg); err != nil {
		return nil, fmt.Errorf("core: setting up O^%s for %v: %w", c.layout.primary, x, err)
	}
	if c.layout.positional {
		st.labels = name(c.layout.secondary)
		return st, nil
	}
	cfg.ValueWidth = c.layout.secondaryWidth
	if st.secondary, err = oram.New(c.edb.svc, c.edb.cipher, name(c.layout.secondary), cfg); err != nil {
		return nil, fmt.Errorf("core: setting up O^%s for %v: %w", c.layout.secondary, x, err)
	}
	return st, nil
}

// setUp puts a group's structures on the server in as few batches as
// oram.SetupAll's byte budget allows: Or-ORAM's label arrays and every
// target's trees created, the trees filled with dummy buckets. The batches
// are a function of the group's size and the public capacity and widths.
func (c *oramCore) setUp(group []target[*oramState]) error {
	var lead []store.BatchOp
	trees := make([]*oram.ORAM, 0, 2*len(group))
	for _, t := range group {
		trees = append(trees, t.st.primary)
		if c.layout.positional {
			lead = append(lead, store.CreateArrayOp(t.st.labels, c.capacity))
		} else {
			trees = append(trees, t.st.secondary)
		}
	}
	if err := oram.SetupAll(c.edb.svc, lead, trees...); err != nil {
		return fmt.Errorf("core: setting up O^%s/O^%s for a group of %d sets of level %d: %w",
			c.layout.primary, c.layout.secondary, len(group), group[0].set.Size(), err)
	}
	return nil
}

func (c *oramCore) destroy(st *oramState) error {
	if st.secondary == nil {
		return errors.Join(st.primary.Destroy(), c.edb.svc.Delete(st.labels))
	}
	return errors.Join(st.primary.Destroy(), st.secondary.Destroy())
}

// level is a group of targets of one lattice level being stepped together:
// the distinct covers they name, and the scratch of the chunks in flight. The
// per-record buffers are obsort.ChunkCells wide, so what a fill holds is
// independent of n: (c + w) labels and, at level 1, w keys per record, one
// buffer of each for the chunks a round carries (levelStep).
type level struct {
	size      int // |X| of every target, the lattice level
	targets   []target[*oramState]
	covers    []*oramState       // the distinct covers the targets name, in order of first mention
	coverSets []relation.AttrSet // the covers' names, for errors
	at        [][2]int           // targets[i]'s covers are covers[at[i][0]] and covers[at[i][1]]
	keys      [][]uint64         // key_X of each single-attribute target, per record of the chunk read last
	labels    [][]uint64         // label_c of each cover, per record of the chunk read last
	out       [][]uint64         // label_X the steps gave each target, per record of the chunk stepped last
	// read and stepped are the ids of the chunks in flight: the one whose
	// public reads have landed, which the next round steps, and the one whose
	// accesses were served, whose write-backs the next round carries.
	read, stepped []int64
	// Ex-ORAM's cover reads: readers[k][rec] notes what the access to cover
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

// lay lays a group out in lv for stepChunks. It reuses what lv holds from an
// earlier group, which is how an insertion steps one group after another
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
				lv.labels[k][r] = decodeLabel(old[c.layout.labelAt:])
			}
			return old, ok
		})
	}
	return lv.readers[k][rec]
}

// stepChunks runs the loop body of Algorithms 1, 2 and 4 for the records of
// every chunk chunks visits, on every target of the level: a fill's chunks
// with its group, or an insertion's one record with a group of the sets it
// steps (an insertion passes its row, which holds its single keys). A chunk
// has three stages, a round each: its public reads, its steps' accesses, its
// write-backs. The chunks go through them as a software pipeline (levelStep):
// one round carries one chunk's write-backs, the next chunk's accesses and
// the reads of the one after, so N chunks take N + 2 rounds, and a single
// chunk the 2 or 3 of its stages that send anything. Each object sees its own
// ops in the order a chunk at a time would send them. Whatever happens, the
// pipeline owes nothing after it, and card_X moves only once the level's last
// write-back has landed.
func (c *oramCore) stepChunks(lv *level, row relation.Row, chunks func(visit func(ids []int64) error) error) error {
	err := chunks(func(ids []int64) error { return c.levelStep(lv, ids, row) })
	for err == nil && len(lv.read)+len(lv.stepped) > 0 {
		err = c.levelStep(lv, nil, row)
	}
	if err == nil {
		for _, t := range lv.targets {
			st := t.st
			st.card += st.pending
			if c.layout.proto == ProtocolDynamicORAM {
				st.nextLabel += st.pending
			}
			st.pending = 0
		}
	}
	lv.read, lv.stepped = lv.read[:0], lv.stepped[:0]
	// Write-backs are still owed only when a round was refused before it was
	// sent or what it read failed a check; flushing an empty pipeline sends
	// nothing.
	if ferr := c.pipe.Flush(); ferr != nil {
		err = errors.Join(err, ferr)
	}
	return err
}

// levelStep sends one round of the pipeline and moves the chunks in flight down
// a stage. The round carries the write-backs lv.stepped still owes and, in
// Or-ORAM, the labels its steps gave its records, to the targets' label
// arrays; the accesses of lv.read, whose keys its reads gave; and the public
// reads of ids, the chunk entering — the cells of a group of single
// attributes' columns, which give their keys, Or-ORAM covers' label cells, or
// the accesses to Ex-ORAM covers' ID ORAMs, which hand over the records'
// labels (Algorithm 2, lines 4–6). Which of these a round holds follows from
// the chunk count and the group, and from nothing fetched.
//
// All of a chunk's accesses to a tree are one batch (oram.Pipeline), in record
// order: the records' functions run in that order, so each sees what the
// records before it left, and a fresh label drawn for one is counted by the
// next (oramState.pending). A chunk's keys and cover labels are spent building
// its accesses, and its targets' labels sealed into its label cells, before
// the round that fills the same buffers for the next chunk is sent.
func (c *oramCore) levelStep(lv *level, ids []int64, row relation.Row) error {
	ops, err := c.labelCells(lv)
	if err != nil {
		return err
	}
	writes := len(ops)
	c.stepAccesses(lv)
	steps := len(lv.accesses)
	ops = c.reads(lv, ids, row, ops)
	answers, err := c.pipe.Do(lv.accesses, ops...)
	if err != nil {
		return c.roundError(lv, steps, err)
	}
	if err := c.takeReads(lv, ids, ops[writes:], answers[writes:]); err != nil {
		return err
	}
	lv.stepped, lv.read = lv.read, append(lv.stepped[:0], ids...)
	return nil
}

// labelCells seals, in Or-ORAM, the labels the steps of lv.stepped gave its
// records into one write to each target's label array. Ex-ORAM's steps wrote
// theirs to O^IKL.
func (c *oramCore) labelCells(lv *level) ([]store.BatchOp, error) {
	if !c.layout.positional || len(lv.stepped) == 0 {
		return nil, nil
	}
	ops := make([]store.BatchOp, len(lv.targets))
	for i, t := range lv.targets {
		slab := make([]byte, 0, len(lv.stepped)*(labelWidth+crypto.Overhead))
		cts := make([][]byte, len(lv.stepped))
		var pt [labelWidth]byte
		ad := labelPlace(t.st.labels)
		for rec, id := range lv.stepped {
			putLabel(pt[:], lv.out[i][rec])
			off := len(slab)
			var err error
			if slab, err = c.edb.cipher.SealTo(slab, pt[:], ad.At(id)); err != nil {
				return nil, err
			}
			cts[rec] = slab[off:len(slab):len(slab)]
		}
		ops[i] = store.BatchOp{Write: true, Name: t.st.labels, Idx: lv.stepped, Cts: cts}
	}
	return ops, nil
}

// stepAccesses lays in lv.accesses the steps of lv.read's records on every
// target: a target's key is its single key or the pair of its covers' labels,
// and a dead record's step is a dummy.
func (c *oramCore) stepAccesses(lv *level) {
	lv.accesses = lv.accesses[:0]
	for rec, id := range lv.read {
		rid, dead := idKey(int(id)), c.dead[int(id)]
		for i, t := range lv.targets {
			var key uint64
			if lv.size == 1 {
				key = lv.keys[i][rec]
			} else {
				key = unionKey(lv.labels[lv.at[i][0]][rec], lv.labels[lv.at[i][1]][rec])
			}
			primary, secondary := c.layout.step(t.st, rid, key, &lv.out[i][rec])
			if dead { // a dummy step: the same accesses, each leaving what it finds
				primary.Fn, secondary.Fn = leave, leave
			}
			lv.accesses = append(lv.accesses, primary)
			if !c.layout.positional {
				lv.accesses = append(lv.accesses, secondary)
			}
		}
	}
}

// reads appends to ops the public reads of the chunk ids, and to lv.accesses
// Ex-ORAM covers' accesses for it. An insertion's single keys come from its
// row and need nothing sent.
func (c *oramCore) reads(lv *level, ids []int64, row relation.Row, ops []store.BatchOp) []store.BatchOp {
	switch {
	case len(ids) == 0:
	case lv.size == 1 && row != nil:
		for i, t := range lv.targets {
			lv.keys[i][0] = singleKey(c.edb.cipher, row[t.set.First()])
		}
	case lv.size == 1:
		for _, t := range lv.targets {
			ops = append(ops, store.BatchOp{Name: c.edb.columnName(t.set.First()), Idx: ids})
		}
	case c.layout.positional:
		for _, cv := range lv.covers {
			ops = append(ops, store.BatchOp{Name: cv.labels, Idx: ids})
		}
	default:
		for rec, id := range ids {
			rid := idKey(int(id))
			for k, cv := range lv.covers {
				lv.accesses = append(lv.accesses, oram.Access{Store: cv.secondary, Key: rid, Fn: c.reader(lv, k, rec)})
			}
		}
	}
	return ops
}

// takeReads takes in what the round read for the chunk ids: the columns'
// cells as keys, or the covers' labels, opened from Or-ORAM's label cells or
// left by the readers of Ex-ORAM's ID ORAMs, which must know every live id.
func (c *oramCore) takeReads(lv *level, ids []int64, ops []store.BatchOp, res [][][]byte) error {
	if len(ids) > 0 && lv.size > 1 && !c.layout.positional {
		for rec, id := range ids {
			for k := range lv.covers {
				if !lv.found[k][rec] && !c.dead[int(id)] { // no target has been touched for this chunk
					return fmt.Errorf("%w: id %d missing from subset partition %v", ErrNotMaterialized, id, lv.coverSets[k])
				}
			}
		}
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
		ad := labelPlace(ops[j].Name)
		for rec, ct := range cts {
			pt, err := c.edb.cipher.Open(ct, ad.At(ids[rec]))
			if err == nil && len(pt) != labelWidth {
				err = fmt.Errorf("%d-byte label", len(pt))
			}
			if err != nil {
				return describeSet(fmt.Errorf("core: O^%s read: label of id %d failed verification: %v: %w", c.layout.secondary, ids[rec], err, store.ErrIntegrity),
					fmt.Sprintf("attribute set %v as cover of level %d", lv.coverSets[j], lv.size))
			}
			lv.labels[j][rec] = decodeLabel(pt)
		}
	}
	return nil
}

// roundError names the structure a round's error arose in, when the pipeline
// says which of the round's accesses it was: one of the first steps, which
// step the targets, or one of the covers' reads after them.
func (c *oramCore) roundError(lv *level, steps int, err error) error {
	var at *oram.AccessError
	if !errors.As(err, &at) {
		return fmt.Errorf("core: O^%s/O^%s round of level %d: %w", c.layout.primary, c.layout.secondary, lv.size, err)
	}
	if i := at.Index - steps; i >= 0 {
		return describeSet(fmt.Errorf("core: O^%s read: %w", c.layout.secondary, err),
			fmt.Sprintf("attribute set %v as cover of level %d", lv.coverSets[i%len(lv.covers)], lv.size))
	}
	structures, perTarget := "O^"+c.layout.primary, 1
	if !c.layout.positional {
		structures, perTarget = structures+"/O^"+c.layout.secondary, 2
	}
	return describeSet(fmt.Errorf("core: %s step: %w", structures, err),
		fmt.Sprintf("attribute set %v", lv.targets[at.Index/perTarget%len(lv.targets)].set))
}

// leave is a dummy step's function: it leaves the store as it finds it.
func leave(old []byte, found bool) ([]byte, bool) { return old, found }

// inAccess names the structure a round's error arose in, when the pipeline
// says which of the round's accesses it was.
func inAccess(err error, where func(i int) string) error {
	var at *oram.AccessError
	if !errors.As(err, &at) {
		return err
	}
	return describeSet(err, where(at.Index))
}

// eachChunk visits the ids a fill steps, in ascending order, at most
// obsort.ChunkCells of them per call — the bound on what a fill holds of a
// column at a time. The slice is reused between calls.
//
// Ex-ORAM steps every appended id, a dead one as a dummy (levelStep): its
// column cell is read and discarded, its accesses leave what they find, and
// nothing is counted. Algorithm 5 deletes by an id it must hide (§V-C), so a
// later fill must not name it either: a fill's chunks and rounds are a
// function of the ids appended, whichever are dead. Or-ORAM's dead ids are
// insertions that failed in the server's view, and it skips them: a set's
// label cell is written only when the set steps the record, so a failed
// insertion can leave a cover's cell unwritten for a union's fill to read.
func (c *oramCore) eachChunk(visit func(ids []int64) error) error {
	ids := make([]int64, 0, obsort.ChunkCells)
	for id, n := 0, c.edb.NumRows(); id < n; id++ {
		if c.layout.positional && c.dead[id] {
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
// chunk at a time, once the group's structures are on the server (setUp).
// The server records the same one access per cell, in the same ascending
// order per array, as it would for a round per record, and the same accesses
// per tree, a chunk's fetches before its write-backs.
func (c *oramCore) fill(group []target[*oramState]) error {
	if err := c.setUp(group); err != nil {
		return err
	}
	lv := c.lay(new(level), group)
	if g, w := c.metrics.Gauge("oblivfd_level_width"), int64(len(group)); w > g.Value() {
		g.Set(w)
	}
	return c.stepChunks(lv, nil, c.eachChunk)
}

// groups cuts the materialized sets into the groups a fill takes them in:
// the sets of one lattice level, at most levelWidth of them, levels
// ascending, so a union's covers are in an earlier group. Which groups there
// are follows from the kept sets alone.
func (c *oramCore) groups() ([][]target[*oramState], error) {
	var out [][]target[*oramState]
	for _, x := range c.setsBySize() {
		t := target[*oramState]{set: x, st: c.sets[x]}
		if x.Size() > 1 {
			for j, cv := range t.st.cover {
				var ok bool
				if t.cover[j], ok = c.sets[cv]; !ok {
					return nil, fmt.Errorf("%w: cover of %v was released; dynamic use requires keeping partitions", ErrNotMaterialized, x)
				}
			}
		}
		if n := len(out); n == 0 || len(out[n-1]) == levelWidth || out[n-1][0].set.Size() != x.Size() {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], t)
	}
	return out, nil
}

// Insert appends row to the database and continues the traversal for it
// across every materialized set (§IV-C(c)) on the fill's schedule: each group
// is a chunk of one record through stepChunks, levels ascending, so Algorithm
// 2's and 4's keys find the covers' fresh labels. The single keys come from
// row, never from reading back the cells just written. An insertion is its
// row's round, then 2 rounds for each group of single attributes and 3 for
// each group above them. It implements DynamicEngine's Insert for ExEngine;
// OrEngine has it too, and no Delete.
//
// A set whose cover was released refuses the insertion before the row is
// appended. When an insertion fails after that, the id stays taken and is
// dead: never traversed or counted, and the next insertion gets the next id.
// The groups stepped before the failure have counted the record, later ones
// have not, and a set whose write-back round was lost refuses further use —
// so the partitions no longer describe one relation: release them and
// materialize again.
func (c *oramCore) Insert(row relation.Row) (int, error) {
	groups, err := c.groups()
	if err != nil {
		return 0, err
	}
	id, err := c.edb.AppendRow(row)
	if err != nil {
		return 0, err
	}
	lv := new(level)
	record := func(visit func(ids []int64) error) error { return visit([]int64{int64(id)}) }
	for _, group := range groups {
		if err := c.stepChunks(c.lay(lv, group), row, record); err != nil {
			c.dead[id] = true
			return 0, err
		}
	}
	return id, nil
}

// CheckpointState implements CheckpointableEngine: every materialized set's
// cardinality, cover, ORAM client states and label array, deep-captured in
// cover-before-union order so resume can rebuild dependencies in sequence,
// and the dead ids.
func (c *oramCore) CheckpointState() *EngineState {
	es := &EngineState{Kind: c.layout.proto.String(), Instance: c.instance, Seq: c.seq.Load()}
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
// reattached to their existing server-side objects and instrumented with reg.
// The server must hold exactly the storage state it had at capture time (see
// the consistency contract in checkpoint.go). An Or-ORAM state whose sets
// keep an ID ORAM was written by a build that ran literal Algorithms 1 and 2
// and is refused.
func (c *oramCore) resume(edb *EncryptedDB, es *EngineState, layout oramLayout, reg *telemetry.Registry) error {
	c.init(edb, es.Instance, layout, reg)
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
		if st.primary, err = oram.Resume(edb.svc, edb.cipher, s.Primary, reg); err != nil {
			return fmt.Errorf("core: resuming O^%s for %v: %w", layout.primary, s.Set, err)
		}
		if !layout.positional {
			if st.secondary, err = oram.Resume(edb.svc, edb.cipher, s.Secondary, reg); err != nil {
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
