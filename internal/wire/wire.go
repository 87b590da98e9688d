// Package wire holds the primitives of oblivfd's one binary layout. Transport
// frames, WAL records and snapshot payloads are all built from them:
//
//	scalar   binary.AppendUvarint / binary.AppendVarint (zigzag)
//	bytes    uvarint length, then the bytes (PutBytes, PutString)
//	indices  uvarint count, then zigzag varints of each index's distance
//	         from its predecessor (the first from 0) — sorted positions,
//	         which is what the engines send, cost one byte each
//	run      uvarint count, then that many `bytes` (a list of ciphertexts)
//
// Writers append to a caller-owned buffer and cannot fail. AppendN reads a
// declared number of bytes without trusting the declaration. Reader is the
// other half: every count and length is checked against the bytes that
// remain before anything is allocated, the first violation sticks, and later
// reads return zero values, so a decoder is a straight run of reads followed
// by one Finish.
//
// A zero-length byte string and an empty list decode as nil: a stored cell
// that was never written is nil, and so it stays across a wire, a log and a
// snapshot.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
)

// ErrMalformed is wrapped by every Reader failure.
var ErrMalformed = errors.New("wire: malformed encoding")

// PutBytes appends p with its length.
func PutBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// PutString appends s with its length.
func PutString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// PutIndices appends a counted, delta-encoded index list.
func PutIndices(b []byte, idx []int64) []byte {
	b = binary.AppendUvarint(b, uint64(len(idx)))
	prev := int64(0)
	for _, v := range idx {
		b = binary.AppendVarint(b, v-prev) // wraps; Indices adds it back the same way
		prev = v
	}
	return b
}

// PutRun appends a counted list of byte strings.
func PutRun(b []byte, run [][]byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(run)))
	for _, p := range run {
		b = PutBytes(b, p)
	}
	return b
}

// SizeBytes is the encoded size of an n-byte string.
func SizeBytes(n int) int { return uvarintLen(uint64(n)) + n }

// SizeIndices is the encoded size of idx.
func SizeIndices(idx []int64) int {
	size := uvarintLen(uint64(len(idx)))
	prev := int64(0)
	for _, v := range idx {
		d := v - prev
		size += uvarintLen(uint64(d<<1) ^ uint64(d>>63)) // zigzag, as AppendVarint
		prev = v
	}
	return size
}

// SizeRun is the encoded size of run.
func SizeRun(run [][]byte) int {
	size := uvarintLen(uint64(len(run)))
	for _, p := range run {
		size += SizeBytes(len(p))
	}
	return size
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// readStep is how far ahead of the bytes received AppendN allocates.
const readStep = 1 << 20

// AppendN appends exactly n bytes read from r to buf. The buffer grows with
// the bytes that arrive, never by n up front: n is usually a length some
// header declared, and a header that lies must cost no more than what
// actually follows it. A stream that ends early is io.ErrUnexpectedEOF.
func AppendN(r io.Reader, buf []byte, n uint64) ([]byte, error) {
	for n > 0 {
		step := int(min(n, readStep))
		at := len(buf)
		buf = slices.Grow(buf, step)[:at+step]
		if got, err := io.ReadFull(r, buf[at:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf[:at+got], err
		}
		n -= uint64(step)
	}
	return buf, nil
}

// Reader consumes an encoded buffer front to back.
type Reader struct {
	buf []byte
	err error
}

// NewReader reads from b, which it never modifies.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Len is the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) }

// Err is the first failure, nil while every read so far was in bounds.
func (r *Reader) Err() error { return r.err }

// Fail records a decoder's own verdict (a bad version, an unknown kind) as
// the sticky error, unless an earlier one is already there.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
		r.buf = nil
	}
}

// Finish returns the sticky error, or an error if bytes are left over.
func (r *Reader) Finish() error {
	if r.err == nil && len(r.buf) != 0 {
		r.Fail("%d trailing bytes", len(r.buf))
	}
	return r.err
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.buf) == 0 {
		r.Fail("short buffer")
		return 0
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.Fail("bad uvarint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a zigzag varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.Fail("bad varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Int reads a zigzag varint that must fit the platform's int.
func (r *Reader) Int() int {
	v := r.Varint()
	if v < math.MinInt || v > math.MaxInt {
		r.Fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// Uint32 reads an unsigned varint that must fit 32 bits.
func (r *Reader) Uint32() uint32 {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.Fail("integer %d overflows uint32", v)
		return 0
	}
	return uint32(v)
}

// Fixed reads exactly n bytes. The result aliases the buffer.
func (r *Reader) Fixed(n int) []byte {
	if n > len(r.buf) {
		r.Fail("short buffer: want %d bytes, have %d", n, len(r.buf))
		return nil
	}
	p := r.buf[:n:n]
	r.buf = r.buf[n:]
	return p
}

// Count reads an element count for a list whose elements each occupy at
// least one byte, so a count beyond the remaining length is refused before
// the caller sizes anything by it.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if n > uint64(len(r.buf)) {
		r.Fail("count %d exceeds the %d bytes present", n, len(r.buf))
		return 0
	}
	return int(n)
}

// Bytes reads a byte string. The result aliases the buffer; nil if empty.
func (r *Reader) Bytes() []byte {
	n := r.Count()
	if n == 0 {
		return nil
	}
	return r.Fixed(n)
}

// String reads a byte string into a new string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Indices reads a list written by PutIndices; nil if empty.
func (r *Reader) Indices() []int64 {
	n := r.Count()
	if n == 0 {
		return nil
	}
	idx := make([]int64, n)
	prev := int64(0)
	for i := range idx {
		prev += r.Varint()
		idx[i] = prev
	}
	if r.err != nil {
		return nil
	}
	return idx
}

// Run reads a list written by PutRun; nil if empty. Who keeps the result
// decides how it is allocated. With slab set, every element is carved from
// one allocation — right for a reader that uses the list and drops it whole,
// like a client decrypting a response. Without it each element is its own
// exact-size allocation — right for a store that keeps elements one by one,
// where a shared slab would stay pinned as long as any of them lives. Either
// way nothing returned aliases the buffer.
func (r *Reader) Run(slab bool) [][]byte {
	n := r.Count()
	if n == 0 {
		return nil
	}
	run := make([][]byte, n)
	var arena []byte
	if slab {
		// What is left holds every element plus one length byte or more
		// each, so this never grows.
		arena = make([]byte, 0, len(r.buf)-n)
	}
	for i := range run {
		p := r.Bytes()
		switch {
		case p == nil:
		case slab:
			at := len(arena)
			arena = append(arena, p...)
			run[i] = arena[at:len(arena):len(arena)]
		default:
			run[i] = append([]byte(nil), p...)
		}
	}
	if r.err != nil {
		return nil
	}
	return run
}
