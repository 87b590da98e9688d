package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/obsort"
	"github.com/oblivfd/oblivfd/internal/oram"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
	"github.com/oblivfd/oblivfd/securefd"
)

// Unit costs: isolated, timed calls into one layer's public functions. The
// traced run prices the program's own counts with them (crypto.est_s,
// core.unexplained_pct); they are per-layer diagnostics and gate nothing.

// cryptoUnit times Seal and Open on a cell of ptBytes plaintext bytes: five
// batches of 20 000 calls each way, the median batch reported per call.
func cryptoUnit(ptBytes int) (sealNS, openNS float64, err error) {
	const batches, per = 5, 20000
	c, err := crypto.NewCipher(crypto.MustNewKey())
	if err != nil {
		return 0, 0, err
	}
	pt := bytes.Repeat([]byte{0x5a}, ptBytes)
	ad := []byte("unit:cell:0")
	var seal, open []float64
	var ct []byte
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			if ct, err = c.Seal(pt, ad); err != nil {
				return 0, 0, err
			}
		}
		seal = append(seal, float64(time.Since(t0).Nanoseconds())/per)
		t0 = time.Now()
		for i := 0; i < per; i++ {
			if _, err = c.Open(ct, ad); err != nil {
				return 0, 0, err
			}
		}
		open = append(open, float64(time.Since(t0).Nanoseconds())/per)
	}
	return median(seal), median(open), nil
}

// primUnit is the isolated cost of the workload's dominant primitive: one
// bitonic comparison on the Sort workloads, one PathORAM access on the ORAM
// ones. It runs against an in-process server through a seam of its own, so
// the time inside the server can be told from the client's.
type primUnit struct {
	wallNS   float64 // wall per primitive, server included
	clientNS float64 // wall minus time inside the seam, per primitive
	opens    float64 // AEAD opens per primitive
	seals    float64 // cells written per primitive
}

type unitRig struct {
	tr     *tracer
	seam   *seam
	cipher *crypto.Cipher
	reg    *telemetry.Registry
}

func newUnitRig() (*unitRig, error) {
	c, err := crypto.NewCipher(crypto.MustNewKey())
	if err != nil {
		return nil, err
	}
	u := &unitRig{tr: newTracer(""), cipher: c, reg: telemetry.New()}
	u.seam = newSeam(store.NewServer(), u.tr, "unit")
	c.SetTelemetry(u.reg)
	return u, nil
}

// timed runs fn with the rig's tracer on and returns the primitive's unit
// costs given how many primitives fn performed.
func (u *unitRig) timed(fn func() (int64, error)) (primUnit, error) {
	opens0 := u.reg.Counter("oblivfd_integrity_checks_total").Value()
	seals0 := u.seam.cellsWritten.Load()
	u.tr.enable(true)
	t0 := time.Now()
	n, err := fn()
	wall := time.Since(t0)
	u.tr.enable(false)
	if err != nil {
		return primUnit{}, err
	}
	if n < 1 {
		return primUnit{}, fmt.Errorf("unit run performed no work")
	}
	var inSeam int64
	for _, a := range u.tr.since(nil) {
		inSeam += a.total
	}
	f := float64(n)
	return primUnit{
		wallNS:   float64(wall.Nanoseconds()) / f,
		clientNS: float64(wall.Nanoseconds()-inSeam) / f,
		opens:    float64(u.reg.Counter("oblivfd_integrity_checks_total").Value()-opens0) / f,
		seals:    float64(u.seam.cellsWritten.Load()-seals0) / f,
	}, nil
}

// sortUnit times obsort.Array.Sort on n records of recBytes each.
func sortUnit(n, recBytes int, seed int64) (primUnit, error) {
	u, err := newUnitRig()
	if err != nil {
		return primUnit{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = make([]byte, recBytes)
		binary.BigEndian.PutUint64(recs[i], rng.Uint64())
	}
	arr, err := obsort.Create(u.seam, u.cipher, "unit-sort", recs)
	if err != nil {
		return primUnit{}, err
	}
	less := func(a, b []byte) bool { return bytes.Compare(a[:8], b[:8]) < 0 }
	return u.timed(func() (int64, error) {
		if err := arr.Sort(less, 1); err != nil {
			return 0, err
		}
		return arr.Comparisons(), nil
	})
}

// oramUnit times Read and Write on a half-full PathORAM of the given
// capacity with the engines' key and value widths.
func oramUnit(capacity, valueBytes int, seed int64) (primUnit, error) {
	const accesses = 2000
	u, err := newUnitRig()
	if err != nil {
		return primUnit{}, err
	}
	o, err := oram.Setup(u.seam, u.cipher, "unit-oram", oram.Config{Capacity: capacity, KeyWidth: 8, ValueWidth: valueBytes, Seed: seed})
	if err != nil {
		return primUnit{}, err
	}
	val := make([]byte, valueBytes)
	key := func(i int) string { return strconv.Itoa(i) }
	for i := 0; i < capacity/2; i++ {
		if err := o.Write(key(i), val); err != nil {
			return primUnit{}, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	return u.timed(func() (int64, error) {
		before := o.Accesses()
		for i := 0; i < accesses; i++ {
			k := key(rng.Intn(capacity / 2))
			if i%2 == 0 {
				if _, _, err := o.Read(k); err != nil {
					return 0, err
				}
			} else if err := o.Write(k, val); err != nil {
				return 0, err
			}
		}
		return o.Accesses() - before, nil
	})
}

// workersSpeedup is the Workers 1 ÷ Workers 2 wall-clock ratio of one Sort
// discovery of rel on an in-process server. On a two-core box it measures the
// scheduler as much as the program, so it is a diagnostic and never a gate.
func workersSpeedup(rel *securefd.Relation) (float64, error) {
	var wall [2]time.Duration
	for i, w := range []int{1, 2} {
		db, err := securefd.Outsource(store.NewServer(), rel, securefd.Options{Protocol: securefd.ProtocolSort, Workers: w})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if _, err := db.Discover(); err != nil {
			return 0, err
		}
		wall[i] = time.Since(t0)
		if err := db.Close(); err != nil {
			return 0, err
		}
	}
	return wall[0].Seconds() / wall[1].Seconds(), nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-quantile (0..1) by nearest rank.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
