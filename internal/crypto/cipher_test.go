package crypto

import (
	"bytes"
	"encoding/binary"
	"errors"
	mathrand "math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/oblivfd/oblivfd/internal/telemetry"
)

func newTestCipher(t *testing.T) *Cipher {
	t.Helper()
	key, err := NewKey()
	if err != nil {
		t.Fatalf("NewKey: %v", err)
	}
	c, err := NewCipher(key)
	if err != nil {
		t.Fatalf("NewCipher: %v", err)
	}
	return c
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	c := newTestCipher(t)
	cases := [][]byte{
		nil,
		{},
		[]byte("a"),
		[]byte("hello world"),
		bytes.Repeat([]byte{0xAB}, 4096),
	}
	for _, pt := range cases {
		ct, err := c.Seal(pt, nil)
		if err != nil {
			t.Fatalf("Seal(%d bytes): %v", len(pt), err)
		}
		if len(ct) != len(pt)+Overhead {
			t.Errorf("ciphertext length = %d, want %d", len(ct), len(pt)+Overhead)
		}
		got, err := c.Open(ct, nil)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if !bytes.Equal(got, pt) {
			t.Errorf("round trip mismatch: got %q want %q", got, pt)
		}
	}
}

func TestEncryptRandomized(t *testing.T) {
	c := newTestCipher(t)
	pt := []byte("same plaintext")
	ct1, err := c.Seal(pt, nil)
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := c.Seal(pt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct1, ct2) {
		t.Error("two encryptions of the same plaintext produced identical ciphertexts")
	}
}

func TestDecryptTooShort(t *testing.T) {
	c := newTestCipher(t)
	if _, err := c.Open([]byte{1, 2, 3}, nil); !errors.Is(err, ErrCiphertextTooShort) {
		t.Errorf("Open on short input: err = %v, want ErrCiphertextTooShort", err)
	}
}

func TestDifferentKeysDisagree(t *testing.T) {
	c1 := newTestCipher(t)
	c2 := newTestCipher(t)
	pt := []byte("cross-key")
	ct, err := c1.Seal(pt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Open(ct, nil); !errors.Is(err, ErrAuth) {
		t.Errorf("decryption under wrong key: err = %v, want ErrAuth", err)
	}
}

func TestTamperedCiphertextRejected(t *testing.T) {
	c := newTestCipher(t)
	pt := []byte("authenticated cell value")
	ct, err := c.Seal(pt, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit at every position: nonce, body, and tag must all be
	// covered by the authentication check.
	for i := range ct {
		mutated := bytes.Clone(ct)
		mutated[i] ^= 0x01
		if _, err := c.Open(mutated, nil); !errors.Is(err, ErrAuth) {
			t.Fatalf("bit flip at byte %d: err = %v, want ErrAuth", i, err)
		}
	}
	// Truncation is rejected too.
	if _, err := c.Open(ct[:Overhead-1], nil); err == nil {
		t.Error("truncated ciphertext decrypted successfully")
	}
}

func TestAssociatedDataBindsLocation(t *testing.T) {
	c := newTestCipher(t)
	pt := []byte("row 7 of column city")
	ct, err := c.Seal(pt, []byte("cell:db:x:col0:7"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Open(ct, []byte("cell:db:x:col0:7"))
	if err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("Open at same location: %q, %v", got, err)
	}
	// The same ciphertext presented at any other location must fail.
	for _, ad := range [][]byte{[]byte("cell:db:x:col0:8"), []byte("cell:db:x:col1:7"), nil} {
		if _, err := c.Open(ct, ad); !errors.Is(err, ErrAuth) {
			t.Errorf("Open with ad %q: err = %v, want ErrAuth", ad, err)
		}
	}
}

func TestNonceUniquenessAcrossReEncryptions(t *testing.T) {
	// Guards the semantic-security claim of §III-C: every write back to the
	// server must carry a fresh IV. Re-encrypt the same cell many times and
	// require all nonce prefixes to be distinct.
	c := newTestCipher(t)
	ct, err := c.Seal([]byte("hot cell"), []byte("slot"))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for i := 0; i < 4096; i++ {
		n := string(ct[:NonceSize])
		if seen[n] {
			t.Fatalf("nonce reused after %d re-encryptions", i)
		}
		seen[n] = true
		pt, err := c.Open(ct, []byte("slot"))
		if err != nil {
			t.Fatal(err)
		}
		if ct, err = c.Seal(pt, []byte("slot")); err != nil {
			t.Fatal(err)
		}
	}
}

func TestIntegrityCounters(t *testing.T) {
	c := newTestCipher(t)
	reg := telemetry.New()
	c.SetTelemetry(reg)
	ct, err := c.Seal([]byte("counted"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(ct, nil); err != nil {
		t.Fatal(err)
	}
	mutated := bytes.Clone(ct)
	mutated[len(mutated)-1] ^= 0xFF
	if _, err := c.Open(mutated, nil); !errors.Is(err, ErrAuth) {
		t.Fatalf("tampered Open: %v", err)
	}
	if got := reg.Counter("oblivfd_integrity_checks_total").Value(); got != 2 {
		t.Errorf("integrity_checks_total = %d, want 2", got)
	}
	if got := reg.Counter("oblivfd_integrity_failures_total").Value(); got != 1 {
		t.Errorf("integrity_failures_total = %d, want 1", got)
	}
	// Detaching must not panic, and a detached cipher still verifies.
	c.SetTelemetry(nil)
	if _, err := c.Open(ct, nil); err != nil {
		t.Errorf("Open after detaching telemetry: %v", err)
	}
}

func TestPRFDeterministicAndSpread(t *testing.T) {
	c := newTestCipher(t)
	a := c.PRF([]byte("alpha"))
	if b := c.PRF([]byte("alpha")); a != b {
		t.Error("PRF is not deterministic")
	}
	if b := c.PRF([]byte("beta")); a == b {
		t.Error("PRF collides on trivially different inputs")
	}
	// Different keys give different functions.
	c2 := newTestCipher(t)
	if c.PRF([]byte("alpha")) == c2.PRF([]byte("alpha")) {
		t.Error("PRF is key-independent")
	}
}

func TestEncryptRoundTripProperty(t *testing.T) {
	c := newTestCipher(t)
	f := func(pt []byte) bool {
		ct, err := c.Seal(pt, nil)
		if err != nil {
			return false
		}
		got, err := c.Open(ct, nil)
		return err == nil && bytes.Equal(got, pt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPadUnpadProperty(t *testing.T) {
	f := func(value []byte) bool {
		width := len(value) + 7
		padded, err := Pad(value, width)
		if err != nil {
			return false
		}
		if len(padded) != PadWidth(width) {
			return false
		}
		got, err := Unpad(padded)
		return err == nil && bytes.Equal(got, value)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPadOverflow(t *testing.T) {
	if _, err := Pad([]byte("too long"), 3); err == nil {
		t.Error("Pad beyond width succeeded, want error")
	}
}

func TestUnpadCorrupt(t *testing.T) {
	for _, buf := range [][]byte{nil, {1}, {0, 0, 0, 9, 1, 2}} {
		if _, err := Unpad(buf); err == nil {
			t.Errorf("Unpad(%v) succeeded, want error", buf)
		}
	}
}

func TestMustHelpers(t *testing.T) {
	key := MustNewKey()
	c := MustNewCipher(key)
	ct, err := c.Seal([]byte("x"), nil)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := c.Open(ct, nil)
	if err != nil || string(pt) != "x" {
		t.Errorf("Must-constructed cipher broken: %q, %v", pt, err)
	}
}

func TestKeysAreRandom(t *testing.T) {
	a := MustNewKey()
	b := MustNewKey()
	if a == b {
		t.Error("two fresh keys are identical")
	}
}

func TestPadEqualWidths(t *testing.T) {
	a, err := Pad([]byte("x"), 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Pad([]byte("a much longer va"), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Errorf("padded widths differ: %d vs %d", len(a), len(b))
	}
}

// TestConcurrentNoncesNeverRepeat seals from 8 goroutines at once and
// requires every nonce to be distinct and to carry the cipher's one fixed
// field (run under -race, this also covers the atomic invocation count).
func TestConcurrentNoncesNeverRepeat(t *testing.T) {
	const goroutines, perGoroutine = 8, 10_000
	c := newTestCipher(t)
	nonces := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := range nonces {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 0, 8+Overhead)
			for i := 0; i < perGoroutine; i++ {
				ct, err := c.SealTo(buf[:0], []byte("12345678"), nil)
				if err != nil {
					t.Error(err)
					return
				}
				nonces[g] = append(nonces[g], string(ct[:NonceSize]))
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[string]bool)
	fixed := nonces[0][0][:fixedSize]
	for _, ns := range nonces {
		for _, n := range ns {
			if seen[n] {
				t.Fatalf("nonce %x handed out twice", n)
			}
			if n[:fixedSize] != fixed {
				t.Fatalf("nonce %x has fixed field %x, want %x", n, n[:fixedSize], fixed)
			}
			seen[n] = true
		}
	}
	if len(seen) != goroutines*perGoroutine {
		t.Fatalf("%d nonces, want %d", len(seen), goroutines*perGoroutine)
	}
}

// flakyReader serves a seeded stream while up. While down it fails every
// read after writing a marker over half of what was asked: a field draw left
// half written.
type flakyReader struct {
	down   bool
	stream *mathrand.Rand
}

var errEntropy = errors.New("entropy source down")

const abandonedByte = 0xAA

func (r *flakyReader) Read(p []byte) (int, error) {
	if r.down {
		n := len(p) / 2
		for i := range p[:n] {
			p[i] = abandonedByte
		}
		return n, errEntropy
	}
	return r.stream.Read(p)
}

// invocation returns a ciphertext's invocation field.
func invocation(ct []byte) uint32 { return binary.BigEndian.Uint32(ct[fixedSize:NonceSize]) }

// TestFailedFieldDrawSurfaces: when the entropy source fails at the first
// seal's field draw, that seal and the next report the error and no field is
// kept; once the source is back the cipher draws a fresh field, none of whose
// bytes come from the failed draw, and counts from zero.
func TestFailedFieldDrawSurfaces(t *testing.T) {
	c := newTestCipher(t)
	src := &flakyReader{down: true, stream: mathrand.New(mathrand.NewSource(1))}
	c.nonces.r = src
	for i := 0; i < 2; i++ {
		if _, err := c.Seal([]byte("x"), nil); !errors.Is(err, errEntropy) {
			t.Fatalf("seal %d with the source down: err = %v, want the source's error", i, err)
		}
	}
	if c.nonces.cur.Load() != nil {
		t.Fatal("a failed draw left a field behind")
	}
	src.down = false
	ct, err := c.Seal([]byte("x"), nil)
	if err != nil {
		t.Fatalf("seal after the source recovered: %v", err)
	}
	if bytes.Contains(ct[:fixedSize], []byte{abandonedByte, abandonedByte, abandonedByte, abandonedByte}) {
		t.Fatalf("fixed field %x holds the failed draw's bytes", ct[:fixedSize])
	}
	if n := invocation(ct); n != 0 {
		t.Fatalf("first invocation of a fresh field = %d, want 0", n)
	}
	if _, err := c.Open(ct, nil); err != nil {
		t.Fatalf("ciphertext sealed after recovery does not open: %v", err)
	}
}

// TestNonceWrapDrawsNewField: the seal after a field's last invocation draws
// a new field and counts from zero again; a draw that fails at the wrap fails
// its seal and the next, and never hands out the exhausted field again. No
// nonce repeats across the wrap.
func TestNonceWrapDrawsNewField(t *testing.T) {
	c := newTestCipher(t)
	src := &flakyReader{stream: mathrand.New(mathrand.NewSource(2))}
	c.nonces.r = src
	seal := func() []byte {
		t.Helper()
		ct, err := c.Seal([]byte("x"), nil)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	first := seal()
	c.nonces.cur.Load().taken.Store(maxInvocations - 2)
	last := [][]byte{seal(), seal()}
	src.down = true
	for i := 0; i < 2; i++ {
		if _, err := c.Seal([]byte("x"), nil); !errors.Is(err, errEntropy) {
			t.Fatalf("seal %d past the wrap with the source down: err = %v, want the source's error", i, err)
		}
	}
	src.down = false
	next := seal()

	for i, ct := range last {
		if !bytes.Equal(ct[:fixedSize], first[:fixedSize]) {
			t.Fatalf("seal %d before the wrap changed field", i)
		}
		if got, want := invocation(ct), uint32(maxInvocations-2+i); got != want {
			t.Fatalf("seal %d before the wrap: invocation %#x, want %#x", i, got, want)
		}
	}
	if bytes.Equal(next[:fixedSize], first[:fixedSize]) {
		t.Fatal("the wrap kept the exhausted field")
	}
	if n := invocation(next); n != 0 {
		t.Fatalf("first invocation after the wrap = %d, want 0", n)
	}
	seen := make(map[string]bool)
	for _, ct := range [][]byte{first, last[0], last[1], next} {
		if seen[string(ct[:NonceSize])] {
			t.Fatalf("nonce %x repeated across the wrap", ct[:NonceSize])
		}
		seen[string(ct[:NonceSize])] = true
		if _, err := c.Open(ct, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCiphersFromOneKeyDrawDifferentFields is the resume case: a client that
// rebuilds its cipher from a checkpointed key gets a new fixed field, so its
// invocation count starting again from zero repeats no nonce of the run it
// resumes.
func TestCiphersFromOneKeyDrawDifferentFields(t *testing.T) {
	key := MustNewKey()
	a, b := MustNewCipher(key), MustNewCipher(key)
	ctA, err := a.Seal([]byte("x"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctB, err := b.Seal([]byte("x"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ctA[:fixedSize], ctB[:fixedSize]) {
		t.Fatalf("two ciphers under one key drew the same fixed field %x", ctA[:fixedSize])
	}
	if invocation(ctA) != 0 || invocation(ctB) != 0 {
		t.Fatalf("invocations %d and %d, want both 0", invocation(ctA), invocation(ctB))
	}
	if _, err := b.Open(ctA, nil); err != nil {
		t.Fatalf("the ciphers do not share the key: %v", err)
	}
}
