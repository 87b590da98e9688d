// Package obsort implements the oblivious sorting primitive of Definition 3
// using Batcher's bitonic sorting network (the paper's choice, §III-C):
// O(n log² n) compare-exchanges whose positions are a fixed function of n
// alone, so the server-visible access pattern carries no information about
// the data. Each compare-exchange ships two ciphertexts to the client, which
// decrypts, compares, and writes both back re-encrypted — always both,
// always fresh, whether or not they swapped.
//
// Comparators within one stage of the network touch disjoint cells, which is
// what gives the algorithm its n/2 parallelism degree (§IV-D, Fig. 6a). Sort
// accepts a worker count to exploit it.
//
// Cells move in blocks of ChunkCells, and what the client does to a fetched
// block is compute on memory it already holds: each worker opens cells into
// a reused scratch and seals the block's fresh ciphertexts into one slab
// allocated for that block's write (the in-process server keeps the slices
// it is handed, so a slab is never written twice). What is transferred, in
// which order, and what is authenticated does not depend on any of this.
package obsort

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
)

// Less orders two plaintext records. It runs inside the client and never
// influences which cells are touched — only the order in which the pair is
// written back.
type Less func(a, b []byte) bool

// ChunkCells bounds how many cells one storage call carries. Sequential
// passes (Scan, CreateStreamed, ReadAll) and sort stages coalesce up to this
// many cells per ReadCells/WriteCells, so round-trip count scales with
// n/ChunkCells instead of n while client memory stays O(1): a worker holds
// one block, ChunkCells × (recWidth + 1 + crypto.Overhead) bytes of
// ciphertext plus its scratch (the block's positions, two plaintexts and
// one associated-data string), whatever n is. The cells touched and their
// per-cell server-visible accesses are identical to the one-at-a-time
// schedule — only the call framing changes (DESIGN.md §11).
const ChunkCells = 64

// Array is a client-side handle to a server-resident encrypted array of
// fixed-width records, padded to a power of two so the bitonic network is
// well-formed. Padding records always sort after real ones and are
// indistinguishable from them on the server.
type Array struct {
	svc      store.Service
	cipher   *crypto.Cipher
	name     string
	n        int // logical record count
	p        int // padded length (power of two)
	recWidth int // payload width; wire records carry one extra flag byte

	comparisons atomic.Int64

	// Telemetry, nil when disabled. The comparison positions are a pure
	// function of the padded length, so counting them observes only
	// Size(DB) (DESIGN.md §9).
	compCtr  *telemetry.Counter
	stageCtr *telemetry.Counter
}

// SetTelemetry attaches (or, with nil, detaches) a metrics registry.
func (a *Array) SetTelemetry(reg *telemetry.Registry) {
	a.compCtr = reg.Counter("oblivfd_sort_comparisons_total")
	a.stageCtr = reg.Counter("oblivfd_sort_stages_total")
}

// Create encrypts records (all of identical width) into a fresh server array
// named name, padded to the next power of two.
func Create(svc store.Service, cipher *crypto.Cipher, name string, records [][]byte) (*Array, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("obsort: empty input")
	}
	w := len(records[0])
	for i, r := range records {
		if len(r) != w {
			return nil, fmt.Errorf("obsort: record %d has %d bytes, want %d", i, len(r), w)
		}
	}
	p := 1
	for p < len(records) {
		p <<= 1
	}
	a := &Array{svc: svc, cipher: cipher, name: name, n: len(records), p: p, recWidth: w}
	if err := svc.CreateArray(name, p); err != nil {
		return nil, fmt.Errorf("obsort: %w", err)
	}
	sc := a.newScratch()
	idx := make([]int64, p)
	out := a.newFreshCells(p)
	for i := range idx {
		idx[i] = int64(i)
		pt := sc.padding()
		if i < len(records) {
			pt = sc.plaintext(records[i])
		}
		if err := a.seal(&out, pt, sc.cellAD(0, idx[i])); err != nil {
			return a.abandon(err)
		}
	}
	if err := svc.WriteCells(name, idx, out.cts); err != nil {
		return a.abandon(fmt.Errorf("obsort: %w", err))
	}
	return a, nil
}

// abandon is how Create and CreateStreamed fail once the server array exists:
// it is theirs, no handle to it will ever be returned, so they delete it —
// best effort — and report the failure that stopped them.
func (a *Array) abandon(err error) (*Array, error) {
	_ = a.svc.Delete(a.name)
	return nil, err
}

// CreateStreamed builds an encrypted array of n records of the given width,
// obtaining records one at a time from next and uploading them a block of
// ChunkCells at a time, so the client never holds more than one block — the
// O(1) client memory property the sorting protocol claims (§IV-D). A record
// is copied out before next is called again, so next may return the same
// buffer every time.
func CreateStreamed(svc store.Service, cipher *crypto.Cipher, name string, n, width int, next func(i int) ([]byte, error)) (*Array, error) {
	if n < 1 {
		return nil, fmt.Errorf("obsort: empty input")
	}
	if width < 1 {
		return nil, fmt.Errorf("obsort: record width %d < 1", width)
	}
	p := 1
	for p < n {
		p <<= 1
	}
	a := &Array{svc: svc, cipher: cipher, name: name, n: n, p: p, recWidth: width}
	if err := svc.CreateArray(name, p); err != nil {
		return nil, fmt.Errorf("obsort: %w", err)
	}
	sc := a.newScratch()
	for lo := 0; lo < p; lo += ChunkCells {
		hi := lo + ChunkCells
		if hi > p {
			hi = p
		}
		idx := sc.span(lo, hi)
		out := a.newFreshCells(len(idx))
		for _, pos := range idx {
			pt := sc.padding()
			if i := int(pos); i < n {
				r, err := next(i)
				if err != nil {
					return a.abandon(err)
				}
				if len(r) != width {
					return a.abandon(fmt.Errorf("obsort: record %d has %d bytes, want %d", i, len(r), width))
				}
				pt = sc.plaintext(r)
			}
			if err := a.seal(&out, pt, sc.cellAD(0, pos)); err != nil {
				return a.abandon(err)
			}
		}
		if err := svc.WriteCells(name, idx, out.cts); err != nil {
			return a.abandon(fmt.Errorf("obsort: %w", err))
		}
	}
	return a, nil
}

// Get decrypts and returns the record at logical position i.
func (a *Array) Get(i int) ([]byte, error) {
	if i < 0 || i >= a.n {
		return nil, fmt.Errorf("obsort: index %d out of range [0,%d)", i, a.n)
	}
	recs, err := a.GetRange(i, i+1)
	if err != nil {
		return nil, err
	}
	return recs[0], nil
}

// GetRange decrypts and returns the logical records in [lo, hi), fetching
// at most ChunkCells cells per storage call. The records are the caller's:
// those of one chunk share an allocation but do not overlap.
func (a *Array) GetRange(lo, hi int) ([][]byte, error) {
	if lo < 0 || hi > a.n || lo > hi {
		return nil, fmt.Errorf("obsort: range [%d,%d) out of [0,%d)", lo, hi, a.n)
	}
	sc := a.newScratch()
	out := make([][]byte, 0, hi-lo)
	for start := lo; start < hi; start += ChunkCells {
		end := start + ChunkCells
		if end > hi {
			end = hi
		}
		idx := sc.span(start, end)
		cts, err := a.svc.ReadCells(a.name, idx)
		if err != nil {
			return nil, fmt.Errorf("obsort: %w", err)
		}
		if out, err = a.openRecords(sc, out, cts, idx); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// GetRanges fetches the same logical range [lo, hi) from several arrays,
// fusing all the reads into one batched round trip when the storage service
// supports it (store.Batcher) and falling back to one read per array
// otherwise. All arrays must live on the same service. Callers bound the
// range themselves (typically to ChunkCells) to keep client memory O(1).
func GetRanges(arrays []*Array, lo, hi int) ([][][]byte, error) {
	if len(arrays) == 0 {
		return nil, nil
	}
	for _, a := range arrays {
		if lo < 0 || hi > a.n || lo > hi {
			return nil, fmt.Errorf("obsort: range [%d,%d) out of [0,%d)", lo, hi, a.n)
		}
	}
	idx := make([]int64, hi-lo)
	for k := range idx {
		idx[k] = int64(lo + k)
	}
	ops := make([]store.BatchOp, len(arrays))
	for j, a := range arrays {
		ops[j] = store.BatchOp{Name: a.name, Idx: idx}
	}
	res, err := store.DoBatch(arrays[0].svc, ops)
	if err != nil {
		return nil, fmt.Errorf("obsort: %w", err)
	}
	out := make([][][]byte, len(arrays))
	for j, a := range arrays {
		out[j], err = a.openRecords(a.newScratch(), make([][]byte, 0, len(idx)), res[j], idx)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// openRecords opens the logical cells cts, fetched from positions idx, into
// one allocation and appends the records to out.
func (a *Array) openRecords(sc *scratch, out [][]byte, cts [][]byte, idx []int64) ([][]byte, error) {
	w := 1 + a.recWidth
	slab := make([]byte, 0, len(cts)*w)
	for k, ct := range cts {
		pt, err := a.open(slab[len(slab):], ct, idx[k], sc.cellAD(0, idx[k]))
		if err != nil {
			return nil, err
		}
		if pt[0] == 1 {
			return nil, fmt.Errorf("obsort: padding record inside logical range at %d", idx[k])
		}
		slab = slab[:len(slab)+w]
		out = append(out, pt[1:w:w])
	}
	return out, nil
}

// Name returns the server-side array name.
func (a *Array) Name() string { return a.name }

// Len returns the logical record count n.
func (a *Array) Len() int { return a.n }

// PaddedLen returns the power-of-two physical length.
func (a *Array) PaddedLen() int { return a.p }

// Width returns the record payload width.
func (a *Array) Width() int { return a.recWidth }

// Comparisons returns the number of compare-exchanges executed so far.
func (a *Array) Comparisons() int64 { return a.comparisons.Load() }

// Destroy deletes the server-side array.
func (a *Array) Destroy() error { return a.svc.Delete(a.name) }

// scratch is the client memory one worker reuses from block to block: the
// block's positions, and the plaintexts (flag byte, then the record) and
// associated data of the comparator's two cells or the scanned cell at hand.
// It is not safe for concurrent use.
type scratch struct {
	idx      []int64
	pt       [2][]byte
	ad       [2][]byte // "sort:<name>:" followed by the decimal position
	adPrefix int
}

func (a *Array) newScratch() *scratch {
	sc := &scratch{idx: make([]int64, 0, ChunkCells)}
	for j := range sc.ad {
		sc.pt[j] = make([]byte, 1+a.recWidth)
		ad := make([]byte, 0, len("sort:")+len(a.name)+len(":")+20)
		sc.ad[j] = append(append(append(ad, "sort:"...), a.name...), ':')
	}
	sc.adPrefix = len(sc.ad[0])
	return sc
}

// cellAD binds a record ciphertext to (array, position). Every read and
// write addresses a cell by its current position and compare-exchange
// re-encrypts both cells it moves, so position binding holds across the
// whole sort: a server that swaps two cells is detected at the next read.
// (Replaying an *old* ciphertext of the same cell is the one substitution
// this layer cannot see — the sort protocols have no per-cell version state;
// DESIGN.md §10 discusses the residual window.) It is built in the scratch's
// slot j (0 or 1), once per cell for both the open and the re-seal, and is
// valid until the next call for that slot.
func (sc *scratch) cellAD(j int, i int64) []byte {
	sc.ad[j] = strconv.AppendInt(sc.ad[j][:sc.adPrefix], i, 10)
	return sc.ad[j]
}

// span sets the scratch's position list to lo..hi-1 and returns it.
func (sc *scratch) span(lo, hi int) []int64 {
	sc.idx = sc.idx[:0]
	for i := lo; i < hi; i++ {
		sc.idx = append(sc.idx, int64(i))
	}
	return sc.idx
}

// plaintext lays rec out for sealing as a real record: a zero flag byte, then
// the record. The result is valid until the scratch's plaintexts are next
// written.
func (sc *scratch) plaintext(rec []byte) []byte {
	sc.pt[0][0] = 0
	copy(sc.pt[0][1:], rec)
	return sc.pt[0]
}

// padding is plaintext for a padding record: flag byte 1, then zeros.
func (sc *scratch) padding() []byte {
	clear(sc.pt[1])
	sc.pt[1][0] = 1
	return sc.pt[1]
}

// open authenticates ct as the cell at position i, whose associated data is
// ad, and decrypts it into the memory of buf, returning the flag byte
// followed by the record.
func (a *Array) open(buf, ct []byte, i int64, ad []byte) ([]byte, error) {
	pt, err := a.cipher.OpenTo(buf[:0], ct, ad)
	if err != nil {
		return nil, fmt.Errorf("obsort %q: cell %d authentication failed: %v: %w", a.name, i, err, store.ErrIntegrity)
	}
	if len(pt) != 1+a.recWidth {
		return nil, fmt.Errorf("obsort %q: cell %d has %d plaintext bytes, want %d: %w", a.name, i, len(pt), 1+a.recWidth, store.ErrIntegrity)
	}
	return pt, nil
}

// freshCells collects the ciphertexts of one WriteCells call. They share a
// slab allocated for that call and never written afterwards, because the
// in-process server retains the slices it is handed.
type freshCells struct {
	slab []byte
	cts  [][]byte
}

func (a *Array) newFreshCells(n int) freshCells {
	return freshCells{
		slab: make([]byte, 0, n*(1+a.recWidth+crypto.Overhead)),
		cts:  make([][]byte, 0, n),
	}
}

// seal encrypts pt (flag byte, then the record) under a fresh nonce as the
// cell whose associated data is ad and adds the ciphertext to out.
func (a *Array) seal(out *freshCells, pt, ad []byte) error {
	start := len(out.slab)
	slab, err := a.cipher.SealTo(out.slab, pt, ad)
	if err != nil {
		return err
	}
	out.slab = slab
	out.cts = append(out.cts, slab[start:len(slab):len(slab)])
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

// runStage executes one network stage with one worker per scratch; all pairs
// are disjoint, so workers can process them concurrently. Pairs are split
// into contiguous chunks — one per worker — so dispatch overhead is per
// stage, not per comparator, and each worker coalesces its pairs into
// ChunkCells-sized storage calls.
func (a *Array) runStage(pairs [][2]int64, less Less, scs []*scratch) error {
	workers := len(scs)
	if workers > len(pairs) {
		workers = len(pairs)
	}
	if workers <= 1 {
		return a.compareExchangeBlocks(scs[0], pairs, less)
	}
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	chunk := (len(pairs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(pairs) {
			break
		}
		hi := lo + chunk
		if hi > len(pairs) {
			hi = len(pairs)
		}
		wg.Add(1)
		go func(sc *scratch, part [][2]int64) {
			defer wg.Done()
			if err := a.compareExchangeBlocks(sc, part, less); err != nil {
				select {
				case errs <- err:
				default:
				}
			}
		}(scs[w], pairs[lo:hi])
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// compareExchangeBlocks processes a run of disjoint pairs in blocks of
// ChunkCells/2 comparators: one ReadCells for the block's cells, the
// compare decisions in client memory, one WriteCells with every cell
// re-encrypted fresh — 2 rounds per block instead of 2 per comparator.
func (a *Array) compareExchangeBlocks(sc *scratch, pairs [][2]int64, less Less) error {
	const blockPairs = ChunkCells / 2
	for lo := 0; lo < len(pairs); lo += blockPairs {
		hi := lo + blockPairs
		if hi > len(pairs) {
			hi = len(pairs)
		}
		if err := a.compareExchangeBlock(sc, pairs[lo:hi], less); err != nil {
			return err
		}
	}
	return nil
}

// compareExchangeBlock orders the records of each (lo, hi) pair so that the
// record at lo sorts before the one at hi. Every cell is rewritten with a
// fresh ciphertext regardless of the comparison outcomes.
func (a *Array) compareExchangeBlock(sc *scratch, pairs [][2]int64, less Less) error {
	sc.idx = sc.idx[:0]
	for _, pr := range pairs {
		sc.idx = append(sc.idx, pr[0], pr[1])
	}
	cts, err := a.svc.ReadCells(a.name, sc.idx)
	if err != nil {
		return fmt.Errorf("obsort: %w", err)
	}
	out := a.newFreshCells(len(sc.idx))
	for k, pr := range pairs {
		ad0, ad1 := sc.cellAD(0, pr[0]), sc.cellAD(1, pr[1])
		pt0, err := a.open(sc.pt[0], cts[2*k], pr[0], ad0)
		if err != nil {
			return err
		}
		pt1, err := a.open(sc.pt[1], cts[2*k+1], pr[1], ad1)
		if err != nil {
			return err
		}
		// Padding sorts after every real record; two paddings are equal.
		pad0, pad1 := pt0[0] == 1, pt1[0] == 1
		swap := false
		switch {
		case pad0 && !pad1:
			swap = true
		case !pad0 && !pad1:
			swap = less(pt1[1:], pt0[1:])
		}
		if swap {
			pt0, pt1 = pt1, pt0
		}
		if err := a.seal(&out, pt0, ad0); err != nil {
			return err
		}
		if err := a.seal(&out, pt1, ad1); err != nil {
			return err
		}
	}
	a.comparisons.Add(int64(len(pairs)))
	a.compCtr.Add(int64(len(pairs)))
	if err := a.svc.WriteCells(a.name, sc.idx, out.cts); err != nil {
		return fmt.Errorf("obsort: %w", err)
	}
	return nil
}

// Scan performs a sequential oblivious pass over the logical records: every
// cell is read, handed to fn, and rewritten with a fresh ciphertext whether
// or not fn changed it. Algorithm 3's labeling loop (lines 3–8) is exactly
// such a pass. fn must return a record of the array's width; it may change
// rec in place and return it, and must not keep rec after it returns. Cells
// move in ChunkCells-sized calls: each chunk is one read round and one write
// round.
func (a *Array) Scan(fn func(i int, rec []byte) ([]byte, error)) error {
	sc := a.newScratch()
	for lo := 0; lo < a.n; lo += ChunkCells {
		hi := lo + ChunkCells
		if hi > a.n {
			hi = a.n
		}
		idx := sc.span(lo, hi)
		cts, err := a.svc.ReadCells(a.name, idx)
		if err != nil {
			return fmt.Errorf("obsort: %w", err)
		}
		out := a.newFreshCells(len(idx))
		for k, ct := range cts {
			ad := sc.cellAD(0, idx[k])
			pt, err := a.open(sc.pt[0], ct, idx[k], ad)
			if err != nil {
				return err
			}
			if pt[0] == 1 {
				return fmt.Errorf("obsort: padding record inside logical range at %d", idx[k])
			}
			rec, err := fn(int(idx[k]), pt[1:])
			if err != nil {
				return err
			}
			if len(rec) != a.recWidth {
				return fmt.Errorf("obsort: Scan fn returned %d bytes, want %d", len(rec), a.recWidth)
			}
			copy(pt[1:], rec)
			if err := a.seal(&out, pt, ad); err != nil {
				return err
			}
		}
		if err := a.svc.WriteCells(a.name, idx, out.cts); err != nil {
			return fmt.Errorf("obsort: %w", err)
		}
	}
	return nil
}

// ReadAll decrypts and returns the logical records. It exists for the final
// result extraction and for tests; it is a plain sequential scan.
func (a *Array) ReadAll() ([][]byte, error) {
	return a.GetRange(0, a.n)
}
