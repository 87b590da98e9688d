package crypto

import (
	"bytes"
	"testing"
)

// BenchmarkCipher measures the buffer-reusing Seal/Open hot path the ORAM
// block codec runs on every slot of every path access.
func BenchmarkCipher(b *testing.B) {
	c := MustNewCipher(MustNewKey())
	pt := make([]byte, 64)
	ad := []byte("bench:ad")

	b.Run("SealTo", func(b *testing.B) {
		buf := make([]byte, 0, len(pt)+Overhead)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ct, err := c.SealTo(buf[:0], pt, ad)
			if err != nil {
				b.Fatal(err)
			}
			buf = ct[:0]
		}
	})
	// A 16-byte seal is little AES work, so the nonce draw shows in it.
	b.Run("SealTo16", func(b *testing.B) {
		pt := pt[:16]
		buf := make([]byte, 0, len(pt)+Overhead)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ct, err := c.SealTo(buf[:0], pt, ad)
			if err != nil {
				b.Fatal(err)
			}
			buf = ct[:0]
		}
	})
	// The obsort block path: one op seals a block's 64 cells back to back
	// into a slab allocated for that block, as ciphertexts headed for the
	// in-process server must be.
	b.Run("SealToSlab64", func(b *testing.B) {
		const cells = 64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			slab := make([]byte, 0, cells*(len(pt)+Overhead))
			for k := 0; k < cells; k++ {
				var err error
				if slab, err = c.SealTo(slab, pt, ad); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("OpenTo", func(b *testing.B) {
		ct, err := c.Seal(pt, ad)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 0, len(pt))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := c.OpenTo(buf[:0], ct, ad)
			if err != nil {
				b.Fatal(err)
			}
			buf = out[:0]
		}
	})
}

// TestCipherScratchAllocs pins the steady-state allocation count of the
// buffer-reusing variants: with a caller-owned scratch of sufficient
// capacity, sealing and opening must not allocate at all. A regression here
// means a per-cell allocation re-entered the crypto hot path.
func TestCipherScratchAllocs(t *testing.T) {
	c := MustNewCipher(MustNewKey())
	pt := make([]byte, 64)
	ad := []byte("allocs:ad")
	ct, err := c.Seal(pt, ad)
	if err != nil {
		t.Fatal(err)
	}

	sealBuf := make([]byte, 0, len(pt)+Overhead)
	sealAllocs := testing.AllocsPerRun(200, func() {
		out, err := c.SealTo(sealBuf[:0], pt, ad)
		if err != nil {
			t.Fatal(err)
		}
		sealBuf = out[:0]
	})
	if sealAllocs > 0 {
		t.Errorf("SealTo with reused buffer allocates %.1f times per op, want 0", sealAllocs)
	}

	openBuf := make([]byte, 0, len(pt))
	var got []byte
	openAllocs := testing.AllocsPerRun(200, func() {
		out, err := c.OpenTo(openBuf[:0], ct, ad)
		if err != nil {
			t.Fatal(err)
		}
		got = out
		openBuf = out[:0]
	})
	if openAllocs > 0 {
		t.Errorf("OpenTo with reused buffer allocates %.1f times per op, want 0", openAllocs)
	}
	if !bytes.Equal(got, pt) {
		t.Errorf("OpenTo round-trip mismatch")
	}
}
