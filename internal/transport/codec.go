package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/oblivfd/oblivfd/internal/otrace"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/wire"
)

// Frame grammar. Both directions of a connection carry length-prefixed
// frames built from the internal/wire primitives (uvarint, zigzag varint,
// `bytes`, delta-coded `indices`, `run` = counted list of `bytes`):
//
//	frame    = version uvarint(len(body)) body
//	request  = kind ctx[26] fields(kind)
//	response = flags [code string] [varint N] [run] [stats] [varint fence, varint seq]
//
// fields(kind) are exactly the fields that kind uses, in a fixed order: for
// a Service operation store.AppendFields, whose layout a write-ahead log
// record shares, and for a control message appendRequest's own cases. A
// response carries the parts its flags byte announces,
// which are the parts that are non-zero. Nothing is optional beyond that and
// nothing is self-describing, so the length of a frame is a closed-form
// function of what the server may see anyway — the kind, the lengths of
// names and ciphertexts, the indices — and of nothing else: the trace context
// is a fixed array copied in verbatim whatever it holds (DESIGN.md §14).
//
// Version rule: the first byte of every frame is frameVersion, ahead of the
// length so that it is judged before anything is read on its say-so. There is
// one codec and no negotiation; a frame that starts with anything else — a
// gob-era peer's, say — is refused with errFrameVersion and the connection
// dropped.
//
// Ownership: a decoded request owns every byte it references (the store
// keeps written ciphertexts cell by cell, so each gets its own allocation);
// a decoded response's ciphertexts are carved from one slab per response,
// because a client decrypts them and drops them together. Neither aliases
// the connection's read buffer, which the next frame overwrites.
const frameVersion = 1

// maxFrame bounds a declared body length. It only has to exceed the largest
// honest frame (a snapshot resync); a frame is never allocated from its
// declared length but grows as its bytes arrive.
const maxFrame = 1 << 32

var errFrameVersion = errors.New("transport: peer does not speak frame version 1 (no other wire format, gob included, is supported)")

// Response flags: which optional parts follow.
const (
	flagErr = 1 << iota
	flagN
	flagCts
	flagStats
	flagRepl
	flagsKnown = flagErr | flagN | flagCts | flagStats | flagRepl
)

// appendRequest appends req's body.
func appendRequest(b []byte, req *request) []byte {
	b = append(b, byte(req.Kind))
	b = append(b, req.Ctx[:]...)
	switch req.Kind {
	case store.KindHello:
		b = wire.PutString(b, req.Name)
		b = wire.PutString(b, req.Token)
		b = binary.AppendVarint(b, req.Value)
	case store.KindReplicate, store.KindSync:
		b = wire.PutString(b, req.Token)
		b = binary.AppendVarint(b, req.Value)
		b = binary.AppendVarint(b, req.Seq)
		b = wire.PutRun(b, req.Cts)
	case store.KindPromote:
		b = wire.PutString(b, req.Token)
		b = binary.AppendVarint(b, req.Value)
	case store.KindTraceDump:
		b = wire.PutString(b, req.Name)
		b = wire.PutString(b, req.Token)
	case store.KindRepair:
		b = wire.PutString(b, req.Token)
		b = binary.AppendVarint(b, req.Value)
		b = wire.PutString(b, req.Name)
		b = binary.AppendVarint(b, int64(req.N))
		b = wire.PutIndices(b, req.Idx)
	default:
		// A Service operation. A kind outside the table encodes as its bare
		// header; the peer's decoder names it in its refusal.
		b = store.AppendFields(b, &req.Op)
	}
	return b
}

// decodeRequest parses one request body into req, which must be zero.
func decodeRequest(body []byte, req *request) error {
	r := wire.NewReader(body)
	req.Kind = store.Kind(r.Byte())
	copy(req.Ctx[:], r.Fixed(otrace.WireSize))
	switch req.Kind {
	case store.KindHello:
		req.Name = r.String()
		req.Token = r.String()
		req.Value = r.Varint()
	case store.KindReplicate, store.KindSync:
		req.Token = r.String()
		req.Value = r.Varint()
		req.Seq = r.Varint()
		req.Cts = r.Run(false)
	case store.KindPromote:
		req.Token = r.String()
		req.Value = r.Varint()
	case store.KindTraceDump:
		req.Name = r.String()
		req.Token = r.String()
	case store.KindRepair:
		req.Token = r.String()
		req.Value = r.Varint()
		req.Name = r.String()
		req.N = r.Int()
		req.Idx = r.Indices()
	default:
		store.ReadFields(r, &req.Op)
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("transport: decoding %v request: %w", req.Kind, err)
	}
	return nil
}

// appendResponse appends resp's body.
func appendResponse(b []byte, resp *response) []byte {
	var flags byte
	if resp.Err != "" {
		flags |= flagErr
	}
	if resp.N != 0 {
		flags |= flagN
	}
	if len(resp.Cts) != 0 {
		flags |= flagCts
	}
	if resp.Stats != (store.Stats{}) {
		flags |= flagStats
	}
	if resp.Fence != 0 || resp.Seq != 0 {
		flags |= flagRepl
	}
	b = append(b, flags)
	if flags&flagErr != 0 {
		b = append(b, byte(resp.Code))
		b = wire.PutString(b, resp.Err)
	}
	if flags&flagN != 0 {
		b = binary.AppendVarint(b, int64(resp.N))
	}
	if flags&flagCts != 0 {
		b = wire.PutRun(b, resp.Cts)
	}
	if flags&flagStats != 0 {
		st := &resp.Stats
		b = binary.AppendVarint(b, int64(st.Objects))
		for _, v := range [...]int64{st.StoredBytes, st.FaultsInjected, st.Retries, st.Reconnects,
			st.Epoch, st.MutationsSinceEpoch, st.Fence, st.ReplicaLag, st.Watermark, st.Failovers} {
			b = binary.AppendVarint(b, v)
		}
		if st.Primary {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	if flags&flagRepl != 0 {
		b = binary.AppendVarint(b, resp.Fence)
		b = binary.AppendVarint(b, resp.Seq)
	}
	return b
}

// decodeResponse parses one response body into resp, which must be zero.
func decodeResponse(body []byte, resp *response) error {
	r := wire.NewReader(body)
	flags := r.Byte()
	if flags&^flagsKnown != 0 {
		r.Fail("unknown response flags %#02x", flags)
	}
	if flags&flagErr != 0 {
		resp.Code = errCode(r.Byte())
		if resp.Err = r.String(); resp.Err == "" {
			r.Fail("error part without a message") // decodeErr would read it as success
		}
	}
	if flags&flagN != 0 {
		resp.N = r.Int()
	}
	if flags&flagCts != 0 {
		resp.Cts = r.Run(true)
	}
	if flags&flagStats != 0 {
		st := &resp.Stats
		st.Objects = r.Int()
		for _, p := range [...]*int64{&st.StoredBytes, &st.FaultsInjected, &st.Retries, &st.Reconnects,
			&st.Epoch, &st.MutationsSinceEpoch, &st.Fence, &st.ReplicaLag, &st.Watermark, &st.Failovers} {
			*p = r.Varint()
		}
		switch flag := r.Byte(); flag {
		case 0, 1:
			st.Primary = flag == 1
		default:
			r.Fail("primary flag %d", flag)
		}
	}
	if flags&flagRepl != 0 {
		resp.Fence = r.Varint()
		resp.Seq = r.Varint()
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("transport: decoding response: %w", err)
	}
	return nil
}

// frameConn is one end of a connection: a reused encode buffer on the way
// out, a buffered reader on the way in.
type frameConn struct {
	w    io.Writer
	wbuf []byte

	br      *bufio.Reader
	pending int    // bytes of br the last frame still occupies
	spill   []byte // body of a frame too large for br's buffer
}

const (
	// readBufSize is large enough that an ORAM path or a sort chunk — any
	// frame short of a bulk load — arrives in one read(2).
	readBufSize = 64 << 10
	// keepBuf is the largest encode or spill buffer a connection keeps
	// between frames; a snapshot resync must not pin its size forever.
	keepBuf = 1 << 20
	// headRoom is reserved ahead of the body for the version byte and the
	// length, which is only known once the body is built.
	headRoom = 1 + binary.MaxVarintLen64
)

func newFrameConn(rw io.ReadWriter) *frameConn {
	return &frameConn{w: rw, br: bufio.NewReaderSize(rw, readBufSize)}
}

// begin returns the encode buffer for the caller to append one body to.
func (f *frameConn) begin() []byte {
	var room [headRoom]byte
	return append(f.wbuf[:0], room[:]...)
}

// flush frames the body appended to begin's buffer and writes it with one
// Write.
func (f *frameConn) flush(buf []byte) error {
	n := uint64(len(buf) - headRoom)
	if n > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds the %d-byte bound", n, uint64(maxFrame))
	}
	start := headRoom - 2 // the version byte and a one-byte length...
	for v := n; v >= 0x80; v >>= 7 {
		start-- // ...and one more per further 7 bits
	}
	buf[start] = frameVersion
	binary.PutUvarint(buf[start+1:], n)
	if cap(buf) <= keepBuf {
		f.wbuf = buf
	} else {
		f.wbuf = nil
	}
	_, err := f.w.Write(buf[start:])
	return err
}

// next returns the next frame's body, valid until the following call. A
// clean end of stream between frames is io.EOF; inside one it is
// io.ErrUnexpectedEOF.
func (f *frameConn) next() ([]byte, error) {
	if _, err := f.br.Discard(f.pending); err != nil {
		return nil, err
	}
	f.pending = 0
	if cap(f.spill) > keepBuf {
		f.spill = nil
	}
	v, err := f.br.ReadByte()
	if err != nil {
		return nil, err
	}
	if v != frameVersion {
		return nil, fmt.Errorf("%w: frame starts with %#02x", errFrameVersion, v)
	}
	n, err := binary.ReadUvarint(f.br)
	if err != nil {
		return nil, midFrame(err)
	}
	if n > maxFrame {
		return nil, fmt.Errorf("transport: %w: declared frame length %d exceeds the %d-byte bound", wire.ErrMalformed, n, uint64(maxFrame))
	}
	if n <= readBufSize {
		body, err := f.br.Peek(int(n))
		if err != nil {
			return nil, midFrame(err)
		}
		f.pending = int(n)
		return body, nil
	}
	// AppendN grows with the bytes that arrive, never by the declared length.
	f.spill, err = wire.AppendN(f.br, f.spill[:0], n)
	return f.spill, err
}

// midFrame turns the end of the stream inside a frame into what it is.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
