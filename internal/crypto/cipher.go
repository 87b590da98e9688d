// Package crypto provides the cell-level authenticated encryption used
// throughout the protocols.
//
// The paper (§II-A, §III-C) assumes each attribute value of each record is
// encrypted individually with a semantically secure scheme, and that the
// client re-encrypts every value it writes back so the server never observes
// a repeated ciphertext. We use AES-128-GCM with a nonce that is never
// repeated under a key (the paper uses AES/CBC; both are IND-CPA, and semantic
// security is the only property the protocols rely on — see DESIGN.md §2).
// GCM additionally authenticates every ciphertext, so a Byzantine server
// that flips bits or substitutes blocks is detected at decryption time
// rather than silently corrupting partition cardinalities (DESIGN.md §10).
//
// Seal/Open accept an associated-data slot that binds a ciphertext to its
// logical location (array name, cell index, ORAM tree); a ciphertext moved
// to a different location fails to open even though it authenticates under
// the same key.
//
// Nonces follow GCM's deterministic construction (NIST SP 800-38D §8.2.1):
// 64 bits of crypto/rand output drawn once per Cipher as a fixed field, then
// a 32-bit invocation counter, so a seal costs one atomic add instead of a
// getrandom call (DESIGN.md §10 has the bounds). SealTo and OpenTo work in
// caller-owned memory, which is what lets the engines process a fetched block
// without allocating per cell.
package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"github.com/oblivfd/oblivfd/internal/telemetry"
)

// KeySize is the symmetric key length in bytes (128-bit keys, as in the
// paper's evaluation setup).
const KeySize = 16

// NonceSize is the per-ciphertext nonce length in bytes (the GCM standard
// nonce size).
const NonceSize = 12

// TagSize is the length of the GCM authentication tag appended to every
// ciphertext.
const TagSize = 16

// Overhead is the number of bytes a ciphertext is longer than its plaintext:
// the nonce prefix plus the authentication tag. It depends only on constants,
// never on the plaintext, so equal-length plaintexts still yield equal-length
// ciphertexts (the property the obliviousness arguments rely on).
const Overhead = NonceSize + TagSize

// ErrCiphertextTooShort is returned by Open and OpenTo when the input cannot
// even hold a nonce and tag.
var ErrCiphertextTooShort = errors.New("crypto: ciphertext shorter than nonce and tag")

// ErrAuth is returned by Open and OpenTo when the authentication tag does not
// verify: the ciphertext was modified, was encrypted under a different key,
// or is being opened at a different logical location (associated data
// mismatch) than it was sealed for.
var ErrAuth = errors.New("crypto: ciphertext authentication failed")

// Key is a symmetric encryption key held only by the client C.
type Key [KeySize]byte

// NewKey draws a fresh random key from crypto/rand.
func NewKey() (Key, error) {
	var k Key
	if _, err := rand.Read(k[:]); err != nil {
		return Key{}, fmt.Errorf("crypto: generating key: %w", err)
	}
	return k, nil
}

// MustNewKey is NewKey for contexts (tests, examples) where entropy failure
// is fatal anyway.
func MustNewKey() Key {
	k, err := NewKey()
	if err != nil {
		panic(err)
	}
	return k
}

// fixedSize and invocationSize split a nonce the way NIST SP 800-38D §8.2.1
// lays out its deterministic construction: a fixed field that names the
// sealing context, then an invocation field that counts the seals made in it.
const (
	fixedSize      = 8
	invocationSize = NonceSize - fixedSize
)

// maxInvocations is how many nonces one fixed field yields.
const maxInvocations = 1 << (8 * invocationSize)

// nonceField is one fixed field and the count of invocations taken from it.
// The count may run past maxInvocations when several seals race the wrap;
// every value at or past it is refused and sends its caller for a new field.
type nonceField struct {
	fixed [fixedSize]byte
	taken atomic.Uint64
}

// nonceSource hands out nonces by the deterministic construction: a fixed
// field of 64 uniform bits from r, then a 32-bit big-endian invocation count,
// so a seal costs one atomic add. A field is drawn at the first seal and again
// when its invocations run out, under mu; a failed draw leaves the field as it
// was, so the seal that hit the failure and every later one go back to r, and
// the bytes of the failed draw are never used. Nothing here is persisted (a
// checkpoint carries the key, never the field): a resumed client is a new
// Cipher and draws a field of its own.
type nonceSource struct {
	mu  sync.Mutex // serializes field draws
	r   io.Reader
	cur atomic.Pointer[nonceField] // nil until the first seal
}

// next writes a fresh nonce into dst, which must be NonceSize bytes.
func (s *nonceSource) next(dst []byte) error {
	for {
		f := s.cur.Load()
		if f != nil {
			if n := f.taken.Add(1) - 1; n < maxInvocations {
				copy(dst, f.fixed[:])
				binary.BigEndian.PutUint32(dst[fixedSize:], uint32(n))
				return nil
			}
		}
		if err := s.renew(f); err != nil {
			return err
		}
	}
}

// renew replaces the exhausted (or, before the first seal, missing) field old
// with a freshly drawn one, unless another seal already has.
func (s *nonceSource) renew(old *nonceField) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur.Load() != old {
		return nil
	}
	f := new(nonceField)
	_, err := io.ReadFull(s.r, f.fixed[:])
	if err == nil {
		s.cur.Store(f)
	}
	return err
}

// Cipher encrypts and decrypts individual cells. It is safe for concurrent
// use: the AEAD is stateless after construction and a nonce is one atomic
// add on the current fixed field. It must not be copied after first use.
// SetTelemetry must not race with Seal/Open (attach the registry before
// handing the cipher to worker goroutines, as securefd.Outsource and the
// engine SetTelemetry paths do).
type Cipher struct {
	key    Key // retained so client-side checkpoints can rebuild the cipher
	aead   cipher.AEAD
	mac    []byte // HMAC key derived from the AES key, for PRF use
	nonces nonceSource

	// Integrity telemetry: one check per Open, one failure per rejected
	// ciphertext. Nil counters no-op, so an un-instrumented cipher pays an
	// untaken branch only.
	checks   *telemetry.Counter
	failures *telemetry.Counter
}

// NewCipher builds a Cipher from a key.
func NewCipher(key Key) (*Cipher, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("crypto: building AES cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("crypto: building GCM: %w", err)
	}
	h := sha256.Sum256(append([]byte("oblivfd-prf-v1"), key[:]...))
	c := &Cipher{key: key, aead: aead, mac: h[:]}
	c.nonces.r = rand.Reader
	return c, nil
}

// Key returns the key the cipher was built from. It exists so a client-side
// checkpoint can carry the key and resume with an identical cipher; the key
// never leaves the client (checkpoint files are client-local by design).
func (c *Cipher) Key() Key { return c.key }

// MustNewCipher is NewCipher that panics on error; the only error source is
// an invalid key length, which the Key type already rules out.
func MustNewCipher(key Key) *Cipher {
	c, err := NewCipher(key)
	if err != nil {
		panic(err)
	}
	return c
}

// SetTelemetry attaches integrity counters to the given registry. A nil
// registry detaches (counters become no-ops). Counters are client-side only
// and never touch storage, so instrumenting a cipher cannot perturb the
// access trace the server observes.
func (c *Cipher) SetTelemetry(reg *telemetry.Registry) {
	c.checks = reg.Counter("oblivfd_integrity_checks_total")
	c.failures = reg.Counter("oblivfd_integrity_failures_total")
}

// Seal produces nonce ∥ GCM(plaintext, ad) with a nonce no other seal under
// the key uses (the cipher's fixed field, then its next invocation count), so
// two encryptions of equal plaintexts are unlinkable. The associated data is
// authenticated but not transmitted: Open must present the same ad, which is
// how ciphertexts are bound to their logical location. The result is a fresh
// allocation of len(plaintext)+Overhead bytes.
func (c *Cipher) Seal(plaintext, ad []byte) ([]byte, error) {
	return c.SealTo(make([]byte, 0, NonceSize+len(plaintext)+TagSize), plaintext, ad)
}

// SealTo is Seal appending to dst, reusing dst's capacity when it suffices.
// Who may recycle the result depends on where it goes. A caller that keeps
// the ciphertext to itself may seal into the same buffer again and again.
// Ciphertexts headed for storage may share one slab — seal cell after cell
// onto the same dst and hand out sub-slices — but the slab must be allocated
// for that one storage call and never written again: the in-process server
// retains the exact slices it is handed.
func (c *Cipher) SealTo(dst, plaintext, ad []byte) ([]byte, error) {
	off := len(dst)
	var zero [NonceSize]byte
	dst = append(dst, zero[:]...)
	if err := c.nonces.next(dst[off : off+NonceSize]); err != nil {
		return nil, fmt.Errorf("crypto: drawing nonce: %w", err)
	}
	return c.aead.Seal(dst, dst[off:off+NonceSize], plaintext, ad), nil
}

// Open reverses Seal, verifying the authentication tag and the binding to
// ad. It returns ErrAuth (or ErrCiphertextTooShort) when verification fails.
func (c *Cipher) Open(ciphertext, ad []byte) ([]byte, error) {
	return c.OpenTo(nil, ciphertext, ad)
}

// OpenTo is Open appending the plaintext to dst. Passing a recycled buffer
// (e.g. scratch[:0]) makes decryption allocation-free in steady state —
// the pattern the ORAM path-read hot loop uses.
func (c *Cipher) OpenTo(dst, ciphertext, ad []byte) ([]byte, error) {
	c.checks.Inc()
	if len(ciphertext) < Overhead {
		c.failures.Inc()
		return nil, ErrCiphertextTooShort
	}
	pt, err := c.aead.Open(dst, ciphertext[:NonceSize], ciphertext[NonceSize:], ad)
	if err != nil {
		c.failures.Inc()
		return nil, ErrAuth
	}
	return pt, nil
}

// PRF evaluates a pseudorandom function (HMAC-SHA256, truncated to 8 bytes)
// on the given message. The client uses it to derive fixed-width block
// identifiers from arbitrary cell values.
func (c *Cipher) PRF(msg []byte) uint64 {
	h := hmac.New(sha256.New, c.mac)
	h.Write(msg)
	return binary.BigEndian.Uint64(h.Sum(nil))
}
