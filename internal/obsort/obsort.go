// Package obsort implements the oblivious sorting primitive of Definition 3
// using Batcher's bitonic sorting network (the paper's choice, §III-C):
// O(n log² n) compare-exchanges whose positions are a fixed function of n
// alone, so the server-visible access pattern carries no information about
// the data. A compare-exchange's records go to the client, which decrypts,
// compares, and writes them back re-encrypted — always all of them, always
// fresh, whether or not they swapped.
//
// Comparators within one stage of the network touch disjoint records, which
// is what gives the algorithm its n/2 parallelism degree (§IV-D, Fig. 6a).
// Sort accepts a worker count to exploit it, a chain of chainBlocks blocks
// per worker at a time.
//
// Records are stored in sealed runs: RunRecords consecutive records under one
// AEAD ciphertext, bound to (array, run index) by crypto.Place. Records move
// in blocks of ChunkCells, two runs, and a block of the network covers whole
// runs at every stride, so a stage maps runs to runs (DESIGN.md §11, "Sealed
// runs"). CreateStreamed owns the blocks of an upload too: it hands its
// caller each block's records to fill in place. What the client does to a
// fetched block is compute on memory it already holds: each worker opens the
// block's runs into a reused scratch, compares and swaps there, and seals the
// runs into one slab allocated for that block's write (the in-process server
// keeps the slices it is handed, so a slab is never written twice). That
// write rides with the next block's read of the same chain. Which runs are
// transferred, in which calls, and what is authenticated does not depend on
// any of this.
//
// A record is as wide as the phase needs: its payload, behind a padding flag
// only in an array that holds padding (p > n), and Reseal changes the payload
// width of every run at once (DESIGN.md §11, "Sealed runs"). A run's length
// is therefore a function of (n, phase) alone.
package obsort

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
)

// Less orders two plaintext records. It runs inside the client and never
// influences which runs are touched — only where the pair's records go.
type Less func(a, b []byte) bool

// ChunkCells bounds how many records one storage call carries. Sequential
// passes (Scan, CreateStreamed, the callers of GetRanges) and sort stages
// coalesce up to this many records — ChunkCells/RunRecords runs — per
// ReadCells/WriteCells, so round-trip count scales with n/ChunkCells instead
// of n while client memory stays O(1): a worker holds two blocks in flight —
// the one just read, in plaintext, and the one sealed before it, two runs of
// RunRecords × RecordBytes(n, width) + crypto.Overhead bytes of ciphertext
// awaiting their write — plus its scratch (the blocks' run indices, one
// record for a swap and one associated-data string), whatever n is. The
// records a call carries are the ones the one-at-a-time schedule touches —
// only the call framing and the unit of sealing differ (DESIGN.md §11).
const ChunkCells = 64

// RunRecords is how many records one ciphertext seals: half a block, so that
// a block of ChunkCells/2 comparators covers two whole runs at every stride.
// An array padded to fewer records is one run of all of them.
const RunRecords = ChunkCells / 2

// blockPairs is how many comparators one compare-exchange block holds.
const blockPairs = ChunkCells / 2

// chainBlocks is how many consecutive blocks of a sub-stage make one chain,
// 16 · ChunkCells = 1 024 records. A chain's first call reads its first
// block, each later call carries one block's write-back and the next block's
// read, and its last call writes its last block: a sub-stage of B blocks
// takes B + ⌈B/chainBlocks⌉ calls, not the 2B of a read and a write per
// block. Workers take whole chains, so the calls do not depend on their
// count (DESIGN.md §11, "Chained blocks").
const chainBlocks = 16

// chainPairs is how many comparators one chain holds.
const chainPairs = chainBlocks * blockPairs

// Array is a client-side handle to a server-resident encrypted array of
// fixed-width records, padded to a power of two so the bitonic network is
// well-formed. Padding records always sort after real ones and are
// indistinguishable from them on the server. The server holds p/run cells,
// one sealed run each.
type Array struct {
	svc    store.Service
	cipher *crypto.Cipher
	name   string
	n      int // logical record count
	p      int // padded length (power of two)
	layout

	comparisons atomic.Int64

	// Telemetry, nil when disabled; CreateStreamed attaches it. The
	// comparison positions are a pure function of the padded length, so
	// counting them observes only Size(DB) (DESIGN.md §9).
	compCtr  *telemetry.Counter
	stageCtr *telemetry.Counter
}

// layout is how records lie in a run's plaintext: run records of flag +
// width bytes each, back to back. It is a function of the array's public
// length and of the payload width its phase uses, never of the data.
type layout struct {
	run   int // records per run: RunRecords, or p when p is smaller
	width int // payload bytes a record carries
	// flag is 1 in an array that holds padding (p > n), whose records each
	// lead with a byte that is 1 for padding and 0 for a real record, and 0
	// in an array of n = p records, which carry the payload alone.
	flag int
}

// stride is the plaintext length of one record.
func (l layout) stride() int { return l.flag + l.width }

// runBytes is the plaintext length of one run.
func (l layout) runBytes() int { return l.run * l.stride() }

// recordAt returns record k of the runs opened back to back into pt — its
// flag byte, if the layout has one, then its payload — capped so that
// appending to it cannot reach the next record.
func (l layout) recordAt(pt []byte, k int) []byte {
	s := l.stride()
	return pt[k*s : (k+1)*s : (k+1)*s]
}

// put writes record rec (flag and payload, as recordAt returns it) from the
// payload r, or as padding — flag 1, then zeros — when r is nil.
func (l layout) put(rec, r []byte) {
	if r == nil {
		rec[0] = 1
		clear(rec[1:])
		return
	}
	copy(l.payload(rec), r)
}

// payload marks rec, as recordAt returns it, as a real record and returns its
// payload bytes.
func (l layout) payload(rec []byte) []byte {
	if l.flag == 1 {
		rec[0] = 0
	}
	return rec[l.flag:]
}

// isPadding reports whether rec, as recordAt returns it, is a padding record.
func (l layout) isPadding(rec []byte) bool { return l.flag == 1 && rec[0] == 1 }

// padded is the bitonic network's length for n records: the next power of
// two.
func padded(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// StageChains is how many chains one sub-stage of the network over n records
// has: p/1 024 for a padded length p of at least 1 024, else one. It is the
// network's degree of parallelism — Sort's workers take whole chains.
func StageChains(n int) int {
	return (padded(n)/2 + chainPairs - 1) / chainPairs
}

// padFlag is the width of the padding flag in an array of n records: 1 if
// the array holds padding, 0 if n is a power of two.
func padFlag(n int) int {
	if padded(n) > n {
		return 1
	}
	return 0
}

// RecordBytes is the plaintext length of one record of width payload bytes in
// an array of n records: the payload, behind a padding flag only when the
// array holds padding.
func RecordBytes(n, width int) int { return padFlag(n) + width }

// Create encrypts records (all of identical width) into a fresh server array
// named name, padded to the next power of two and not instrumented.
func Create(svc store.Service, cipher *crypto.Cipher, name string, records [][]byte) (*Array, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("obsort: empty input")
	}
	width := len(records[0])
	return CreateStreamed(svc, cipher, name, len(records), width, nil, func(lo int, recs [][]byte) error {
		for k, rec := range recs {
			r := records[lo+k]
			if len(r) != width {
				return fmt.Errorf("obsort: record %d has %d bytes, want %d", lo+k, len(r), width)
			}
			copy(rec, r)
		}
		return nil
	})
}

// abandon is how CreateStreamed fails once the server array exists: it is
// its own, no handle to it will ever be returned, so it deletes it — best
// effort — and reports the failure that stopped it.
func (a *Array) abandon(err error) (*Array, error) {
	_ = a.svc.Delete(a.name)
	return nil, err
}

// CreateStreamed builds an encrypted array of n records of the given width,
// its comparisons and stages counted in reg (nil: not instrumented), and
// uploads it a block of ChunkCells records at a time, so the client never
// holds more than one block — the O(1) client memory property the sorting
// protocol claims (§IV-D). For each block that holds real records, fill is
// handed the block's first record index lo and one slot of width bytes per
// real record in it, recs[k] for record lo+k, and must write every byte of
// every slot: the slots are the block's plaintext, reused from block to
// block. The block is sealed and written when fill returns.
func CreateStreamed(svc store.Service, cipher *crypto.Cipher, name string, n, width int, reg *telemetry.Registry, fill func(lo int, recs [][]byte) error) (*Array, error) {
	if n < 1 {
		return nil, fmt.Errorf("obsort: empty input")
	}
	if width < 1 {
		return nil, fmt.Errorf("obsort: record width %d < 1", width)
	}
	p := padded(n)
	a := &Array{svc: svc, cipher: cipher, name: name, n: n, p: p,
		layout:   layout{run: min(p, RunRecords), width: width, flag: padFlag(n)},
		compCtr:  reg.Counter("oblivfd_sort_comparisons_total"),
		stageCtr: reg.Counter("oblivfd_sort_stages_total")}
	// The create rides with the first block's write; until it is sent there
	// is nothing to abandon.
	create := []store.BatchOp{store.CreateArrayOp(name, p/a.run)}
	fail := func(err error) (*Array, error) {
		if create != nil {
			return nil, err
		}
		return a.abandon(err)
	}
	sc := a.newScratch()
	recs := make([][]byte, 0, min(ChunkCells, n))
	for lo := 0; lo < p; lo += ChunkCells {
		hi := min(lo+ChunkCells, p)
		sc.runs = a.appendRuns(sc.runs[:0], lo, hi)
		rb := a.runBytes()
		pt := sc.pt[:len(sc.runs)*rb]
		recs = recs[:0]
		for i := lo; i < hi; i++ {
			if rec := a.recordAt(pt, i-lo); i < n {
				recs = append(recs, a.payload(rec))
			} else {
				a.put(rec, nil)
			}
		}
		if len(recs) > 0 {
			if err := fill(lo, recs); err != nil {
				return fail(err)
			}
		}
		err := a.writeRuns(sc.ad, rb, sc.runs, pt, create...)
		create = nil
		if err != nil {
			return fail(err)
		}
	}
	return a, nil
}

// GetRanges fetches the same logical range [lo, hi) from several arrays —
// the runs that hold it — fusing all the reads into one batched round trip
// when the storage service supports it (store.Batcher) and falling back to
// one read per array otherwise. All arrays must live on the same service.
// Callers bound the range themselves (typically to ChunkCells) to keep client
// memory O(1). The records are the caller's: those of one array share an
// allocation but do not overlap.
func GetRanges(arrays []*Array, lo, hi int) ([][][]byte, error) {
	if len(arrays) == 0 {
		return nil, nil
	}
	for _, a := range arrays {
		if lo < 0 || hi > a.n || lo > hi {
			return nil, fmt.Errorf("obsort: range [%d,%d) out of [0,%d)", lo, hi, a.n)
		}
	}
	ops := make([]store.BatchOp, len(arrays))
	for j, a := range arrays {
		ops[j] = store.BatchOp{Name: a.name, Idx: a.appendRuns(nil, lo, hi)}
	}
	res, err := store.DoBatch(arrays[0].svc, ops)
	if err != nil {
		return nil, fmt.Errorf("obsort: %w", err)
	}
	out := make([][][]byte, len(arrays))
	for j, a := range arrays {
		runs := ops[j].Idx
		rb := a.runBytes()
		pt := make([]byte, len(runs)*rb)
		if err := a.openRuns(a.runPlace(), rb, pt, res[j], runs); err != nil {
			return nil, err
		}
		out[j] = make([][]byte, 0, hi-lo)
		for i := lo; i < hi; i++ {
			rec := a.recordAt(pt, i-int(runs[0])*a.run)
			if a.isPadding(rec) {
				return nil, fmt.Errorf("obsort: padding record inside logical range at %d", i)
			}
			out[j] = append(out[j], rec[a.flag:])
		}
	}
	return out, nil
}

// Comparisons returns the number of compare-exchanges executed so far.
func (a *Array) Comparisons() int64 { return a.comparisons.Load() }

// Destroy deletes the server-side array.
func (a *Array) Destroy() error { return a.svc.Delete(a.name) }

// appendRuns appends the indices of the runs that hold records [lo, hi) to
// dst, ascending.
func (a *Array) appendRuns(dst []int64, lo, hi int) []int64 {
	if hi <= lo {
		return dst
	}
	for k := lo / a.run; k <= (hi-1)/a.run; k++ {
		dst = append(dst, int64(k))
	}
	return dst
}

// runPlace binds a run's ciphertext to (array, run index), as
// "sort:<name>:r<k>". Every read and write addresses a run by its index and
// every write re-seals the whole run, so the binding holds across the whole
// sort: a server that swaps two runs, or splices in a run of another array,
// is detected at the next read. (Replaying an *older* ciphertext of the same
// run is the one substitution this layer cannot see — the sort protocols have
// no per-run version state; DESIGN.md §10 discusses the residual window.)
func (a *Array) runPlace() crypto.Place { return crypto.NewPlace("sort:" + a.name + ":r") }

// scratch is the client memory one worker reuses from block to block: the
// runs of the block in hand, their plaintexts back to back, one record for a
// swap, the runs' associated data, and the write of the block sealed before
// it, held back to ride with the next call. It is not safe for concurrent
// use.
type scratch struct {
	ad   crypto.Place
	runs []int64
	pt   []byte
	tmp  []byte
	// ops[0] is the held write, its Write false when there is none, and
	// ops[1] the read it rides with; spare holds the held write's runs.
	ops   [2]store.BatchOp
	spare []int64
}

func (a *Array) newScratch() *scratch {
	const perCall = ChunkCells / RunRecords
	runs := make([]int64, 0, 2*perCall)
	return &scratch{
		ad:    a.runPlace(),
		runs:  runs[:0:perCall],
		spare: runs[perCall:perCall],
		pt:    make([]byte, min(ChunkCells, a.p)*a.stride()),
		tmp:   make([]byte, a.stride()),
	}
}

// fetch reads sc.runs in one call, behind the held write in one batch when
// there is one, and opens them, back to back, into pt, as runs of rb
// plaintext bytes.
func (a *Array) fetch(sc *scratch, rb int, pt []byte) error {
	var cts [][]byte
	var err error
	if sc.ops[0].Write {
		sc.ops[1] = store.BatchOp{Name: a.name, Idx: sc.runs}
		var res [][][]byte
		res, err = store.DoBatch(a.svc, sc.ops[:])
		sc.ops = [2]store.BatchOp{}
		if len(res) == len(sc.ops) {
			cts = res[1]
		}
	} else {
		cts, err = a.svc.ReadCells(a.name, sc.runs)
	}
	if err != nil {
		return fmt.Errorf("obsort: %w", err)
	}
	return a.openRuns(sc.ad, rb, pt, cts, sc.runs)
}

// hold seals sc.runs' plaintexts, rb bytes each back to back in pt, and keeps
// their write back for the next call; sc.runs is free for the next block.
func (a *Array) hold(sc *scratch, rb int, pt []byte) error {
	cts, err := a.sealRuns(sc.ad, rb, sc.runs, pt)
	if err != nil {
		return err
	}
	sc.ops[0] = store.BatchOp{Write: true, Name: a.name, Idx: sc.runs, Cts: cts}
	sc.runs, sc.spare = sc.spare[:0], sc.runs
	return nil
}

// flush writes the held block, if there is one, in a call of its own: the
// last call of a chain.
func (a *Array) flush(sc *scratch) error {
	w := sc.ops[0]
	if !w.Write {
		return nil
	}
	sc.ops[0] = store.BatchOp{}
	if err := a.svc.WriteCells(a.name, w.Idx, w.Cts); err != nil {
		return fmt.Errorf("obsort: %w", err)
	}
	return nil
}

// openRuns authenticates cts[j] as run runs[j] and decrypts it into its slot
// of rb bytes in pt. An answer that does not hold one ciphertext per run, a
// ciphertext that does not open, or one that opens to anything but a whole run
// of rb bytes — a run sealed at the other phase's width among them — fails
// with store.ErrIntegrity: a slot left unopened would be re-sealed with
// whatever it held.
func (a *Array) openRuns(ad crypto.Place, rb int, pt []byte, cts [][]byte, runs []int64) error {
	if len(cts) != len(runs) {
		return fmt.Errorf("obsort %q: %d ciphertexts for %d runs: %w", a.name, len(cts), len(runs), store.ErrIntegrity)
	}
	for j, ct := range cts {
		got, err := a.cipher.OpenTo(pt[j*rb:j*rb:(j+1)*rb], ct, ad.At(runs[j]))
		if err != nil {
			return fmt.Errorf("obsort %q: run %d authentication failed: %v: %w", a.name, runs[j], err, store.ErrIntegrity)
		}
		if len(got) != rb {
			return fmt.Errorf("obsort %q: run %d has %d plaintext bytes, want %d: %w", a.name, runs[j], len(got), rb, store.ErrIntegrity)
		}
	}
	return nil
}

// sealRuns seals the named runs' plaintexts, rb bytes each back to back in
// pt, each under a fresh nonce. The ciphertexts share a slab allocated for
// their write and never written afterwards, because the in-process server
// retains the slices it is handed.
func (a *Array) sealRuns(ad crypto.Place, rb int, runs []int64, pt []byte) ([][]byte, error) {
	slab := make([]byte, 0, len(runs)*(rb+crypto.Overhead))
	cts := make([][]byte, len(runs))
	for j, k := range runs {
		start := len(slab)
		var err error
		if slab, err = a.cipher.SealTo(slab, pt[j*rb:(j+1)*rb], ad.At(k)); err != nil {
			return nil, err
		}
		cts[j] = slab[start:len(slab):len(slab)]
	}
	return cts, nil
}

// writeRuns seals the named runs and writes them in one call, behind lead in
// one batch when there is a lead (CreateStreamed's create).
func (a *Array) writeRuns(ad crypto.Place, rb int, runs []int64, pt []byte, lead ...store.BatchOp) error {
	cts, err := a.sealRuns(ad, rb, runs, pt)
	if err != nil {
		return err
	}
	if len(lead) == 0 {
		err = a.svc.WriteCells(a.name, runs, cts)
	} else {
		_, err = store.DoBatch(a.svc, append(lead, store.BatchOp{Write: true, Name: a.name, Idx: runs, Cts: cts}))
	}
	if err != nil {
		return fmt.Errorf("obsort: %w", err)
	}
	return nil
}

// Stages enumerates the bitonic network for a power-of-two length p: fn is
// invoked once per stage with that stage's compare-exchange pairs (lo, hi),
// meaning "the record at lo must sort before the record at hi". Pairs
// within a stage touch disjoint positions and may run concurrently. The
// network is a pure function of p — this is what makes the sort oblivious.
// The enclave simulation replays the identical network in secure memory.
func Stages(p int, fn func(pairs [][2]int64) error) error {
	if p&(p-1) != 0 || p < 1 {
		return fmt.Errorf("obsort: stage enumeration needs a power-of-two length, got %d", p)
	}
	pairs := make([][2]int64, 0, p/2)
	for k := 2; k <= p; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			pairs = pairs[:0]
			for i := 0; i < p; i++ {
				l := i ^ j
				if l <= i {
					continue
				}
				lo, hi := int64(i), int64(l)
				if i&k != 0 {
					lo, hi = hi, lo // descending half of the bitonic merge
				}
				pairs = append(pairs, [2]int64{lo, hi})
			}
			if err := fn(pairs); err != nil {
				return err
			}
		}
	}
	return nil
}

// Sort obliviously sorts the array in ascending order of less using the
// bitonic network, with the given number of parallel workers (minimum 1).
// The compare-exchange positions are a pure function of the padded length.
func (a *Array) Sort(less Less, workers int) error {
	if workers < 1 {
		workers = 1
	}
	scs := make([]*scratch, workers)
	for w := range scs {
		scs[w] = a.newScratch()
	}
	return Stages(a.p, func(pairs [][2]int64) error {
		a.stageCtr.Inc()
		return a.runStage(pairs, less, scs)
	})
}

// runStage executes one network stage with up to one worker per scratch; all
// pairs are disjoint, so workers can process them concurrently. The stage's
// blocks are cut into chains of chainBlocks consecutive blocks, and workers
// take whole chains from a shared counter, so the storage calls — and the
// runs each one moves — are the ones a single worker makes, whatever the
// worker count; only the interleaving of the chains differs.
func (a *Array) runStage(pairs [][2]int64, less Less, scs []*scratch) error {
	chains := StageChains(a.p)
	workers := min(len(scs), chains)
	if workers == 1 {
		for c := range chains {
			if err := a.compareExchangeChain(scs[0], chain(pairs, c), less); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	var failed atomic.Bool
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for _, sc := range scs[:workers] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := int(next.Add(1) - 1); c < chains && !failed.Load(); c = int(next.Add(1) - 1) {
				if err := a.compareExchangeChain(sc, chain(pairs, c), less); err != nil {
					failed.Store(true)
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// chain is chain c of a stage's pairs.
func chain(pairs [][2]int64, c int) [][2]int64 {
	return pairs[c*chainPairs : min((c+1)*chainPairs, len(pairs))]
}

// compareExchangeChain processes consecutive pairs of one sub-stage as a
// chain of blocks of blockPairs comparators: one ReadCells for the first
// block's runs, then per later block one batch of the previous block's
// re-sealed runs and this block's read, and one WriteCells for the last
// block — blocks + 1 calls where one read and one write a block took twice
// the blocks. A chain that fails drops the write it held.
func (a *Array) compareExchangeChain(sc *scratch, pairs [][2]int64, less Less) error {
	for lo := 0; lo < len(pairs); lo += blockPairs {
		if err := a.compareExchangeBlock(sc, pairs[lo:min(lo+blockPairs, len(pairs))], less); err != nil {
			sc.ops[0] = store.BatchOp{}
			return err
		}
	}
	return a.flush(sc)
}

// compareExchangeBlock orders the records of each (lo, hi) pair so that the
// record at lo sorts before the one at hi. A block of the network holds the
// records of two whole runs — at stride ≥ RunRecords it pairs run k with run
// k + stride/RunRecords, below that its pairs stay inside runs 2m and 2m+1 —
// or of the array's one run (DESIGN.md §11: a sub-stage maps runs to runs).
// So the block's runs are those of its lowest position, the first pair's
// lower end, and of its highest, the last pair's upper end, and a record's
// offset among them is computed from its position. Every run it reads is
// re-sealed fresh regardless of the comparison outcomes, and its write is
// held for the chain's next call.
func (a *Array) compareExchangeBlock(sc *scratch, pairs [][2]int64, less Less) error {
	run := int64(a.run)
	first, last := min(pairs[0][0], pairs[0][1])/run, max(pairs[len(pairs)-1][0], pairs[len(pairs)-1][1])/run
	sc.runs = append(sc.runs[:0], first)
	if last != first {
		sc.runs = append(sc.runs, last)
	}
	rb := a.runBytes()
	pt := sc.pt[:len(sc.runs)*rb]
	if err := a.fetch(sc, rb, pt); err != nil {
		return err
	}
	s, f := int64(a.stride()), a.flag
	firstPos, lastPos := first*run, last*run
	for _, pr := range pairs {
		k0, k1 := slot(pr[0], firstPos, lastPos, run), slot(pr[1], firstPos, lastPos, run)
		if k0 < 0 || k1 < 0 {
			return fmt.Errorf("obsort: pair %v outside the block's runs %d and %d", pr, first, last)
		}
		r0, r1 := pt[k0*s:(k0+1)*s:(k0+1)*s], pt[k1*s:(k1+1)*s:(k1+1)*s]
		// Padding sorts after every real record; two paddings are equal.
		pad0, pad1 := f == 1 && r0[0] == 1, f == 1 && r1[0] == 1
		if pad0 && !pad1 || !pad0 && !pad1 && less(r1[f:], r0[f:]) {
			copy(sc.tmp, r0)
			copy(r0, r1)
			copy(r1, sc.tmp)
		}
	}
	a.comparisons.Add(int64(len(pairs)))
	a.compCtr.Add(int64(len(pairs)))
	return a.hold(sc, rb, pt)
}

// slot is the index, among a block's runs opened back to back, of the record
// at position pos: pos − firstPos in the run that starts at firstPos, run +
// pos − lastPos in the one that starts at lastPos, and −1 outside both.
func slot(pos, firstPos, lastPos, run int64) int64 {
	switch {
	case pos >= firstPos && pos < firstPos+run:
		return pos - firstPos
	case pos >= lastPos && pos < lastPos+run:
		return run + pos - lastPos
	}
	return -1
}

// Scan performs a sequential oblivious pass over the logical records: every
// record is read, handed to fn, and its run rewritten with a fresh ciphertext
// whether or not fn changed it. fn must return a record of the array's width;
// it may change rec in place and return it, and must not keep rec after it
// returns. Records move in ChunkCells-sized calls of whole runs, ⌈n/ChunkCells⌉
// chunks chained as a sort's blocks are: the first call reads the first
// chunk, each later one writes a chunk back and reads the next, and the last
// writes the last chunk — chunks + 1 calls.
func (a *Array) Scan(fn func(i int, rec []byte) ([]byte, error)) error {
	return a.Reseal(a.width, fn)
}

// Reseal is Scan at a new payload width: fn is handed each record at the
// array's width and returns one of width bytes (it may return rec itself when
// the width is unchanged), and every run is re-sealed at the new width.
// Algorithm 3's labelling loop (lines 3–8) is such a pass, from (key_X, r[ID])
// to (label_X, r[ID]). A run holds a fixed number of records, so a pass that
// changes the width also re-seals the runs that hold only padding, and no
// array ever mixes layouts: it reads ⌈p/ChunkCells⌉ chunks where Scan reads
// ⌈n/ChunkCells⌉, the same count when n is a power of two. Which chunks it
// reads is a function of n and of whether the width changes, and its calls
// are Scan's chain over them. A pass that fails part-way leaves the array in
// two layouts, fit only for Destroy.
func (a *Array) Reseal(width int, fn func(i int, rec []byte) ([]byte, error)) error {
	if width < 1 {
		return fmt.Errorf("obsort: record width %d < 1", width)
	}
	from, to := a.layout, a.layout
	to.width = width
	end, out := a.n, []byte(nil)
	if to != from {
		end, out = a.p, make([]byte, min(ChunkCells, a.p)*to.stride())
	}
	sc := a.newScratch()
	for lo := 0; lo < end; lo += ChunkCells {
		sc.runs = a.appendRuns(sc.runs[:0], lo, min(lo+ChunkCells, end))
		pt := sc.pt[:len(sc.runs)*from.runBytes()]
		if err := a.fetch(sc, from.runBytes(), pt); err != nil {
			return err
		}
		next := pt
		if out != nil {
			next = out[:len(sc.runs)*to.runBytes()]
		}
		// Every record of the runs read, the padding in the last one too.
		base := int(sc.runs[0]) * a.run
		for k := range len(sc.runs) * a.run {
			rec, i := from.recordAt(pt, k), base+k
			if i >= a.n {
				to.put(to.recordAt(next, k), nil)
				continue
			}
			if from.isPadding(rec) {
				return fmt.Errorf("obsort: padding record inside logical range at %d", i)
			}
			r, err := fn(i, rec[from.flag:])
			if err != nil {
				return err
			}
			if len(r) != width {
				return fmt.Errorf("obsort: the pass returned %d bytes for record %d, want %d", len(r), i, width)
			}
			to.put(to.recordAt(next, k), r)
		}
		if err := a.hold(sc, to.runBytes(), next); err != nil {
			return err
		}
	}
	if err := a.flush(sc); err != nil {
		return err
	}
	a.layout = to
	return nil
}
