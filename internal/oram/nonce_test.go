package oram

import (
	"fmt"
	"sync"
	"testing"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/store"
)

// nonceRecorder observes every ciphertext the client ships to storage and
// indexes it by its GCM nonce prefix. AES-GCM is catastrophically broken by
// nonce reuse under one key (it leaks the XOR of plaintexts and the auth
// subkey), and the ORAMs re-encrypt every touched block on every access, so
// the nonce draw rate here is orders of magnitude above a typical AEAD
// user's — this property test pins down that each re-encryption draws a
// fresh random nonce.
type nonceRecorder struct {
	store.Service
	mu     sync.Mutex
	seen   map[string]bool
	total  int
	reused int
}

func newNonceRecorder(svc store.Service) *nonceRecorder {
	return &nonceRecorder{Service: svc, seen: make(map[string]bool)}
}

func (r *nonceRecorder) observe(cts [][]byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ct := range cts {
		if len(ct) < crypto.NonceSize {
			continue
		}
		n := string(ct[:crypto.NonceSize])
		if r.seen[n] {
			r.reused++
		}
		r.seen[n] = true
		r.total++
	}
}

func (r *nonceRecorder) WriteCells(name string, idx []int64, cts [][]byte) error {
	r.observe(cts)
	return r.Service.WriteCells(name, idx, cts)
}

func (r *nonceRecorder) WritePath(name string, leaf uint32, slots [][]byte) error {
	r.observe(slots)
	return r.Service.WritePath(name, leaf, slots)
}

func (r *nonceRecorder) WriteBuckets(name string, bucketStart int, slots [][]byte) error {
	r.observe(slots)
	return r.Service.WriteBuckets(name, bucketStart, slots)
}

func (r *nonceRecorder) stats() (total, reused int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total, r.reused
}

// TestPathORAMNeverReusesNonce: across setup plus hundreds of accesses (each
// re-encrypting every bucket of a full tree path), no two ciphertexts under
// the tree's key ever share a nonce — and there is exactly one ciphertext, so
// one nonce, per bucket written.
func TestPathORAMNeverReusesNonce(t *testing.T) {
	rec := newNonceRecorder(store.NewServer())
	o, err := Setup(rec, crypto.MustNewCipher(crypto.MustNewKey()), "nonce", Config{
		Capacity:   32,
		KeyWidth:   16,
		ValueWidth: 8,
		Seed:       7,
	})
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("k%d", i%32)
		if err := o.Write(k, val(8, byte(i))); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
		if _, _, err := o.Read(k); err != nil {
			t.Fatalf("Read %d: %v", i, err)
		}
	}
	total, reused := rec.stats()
	if reused != 0 {
		t.Errorf("nonce reused %d times across %d ciphertexts", reused, total)
	}
	// 32 leaves → 6 levels, 63 buckets: Setup seals each once, each of the
	// 600 accesses seals the 6 on its path.
	if want := 63 + 600*6; total != want {
		t.Errorf("recorder saw %d ciphertexts, want %d (one per bucket written)", total, want)
	}
}
