package core

import (
	"net"
	"testing"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/transport"
)

// BenchmarkEngineStepLoopback is one record of an ORAM engine's traversal
// over a loopback TCP connection — the unit the oram-tcp and exoram-dynamic
// workloads are made of: the |X| = 1 step (2 accesses, 2 rounds) and the
// |X| ≥ 2 one with its two cover reads (4 accesses, 3 rounds), for the trees
// of a 1024-record relation. rounds/record and accesses/record are counts,
// the same on every run; ns/op is mostly the round trips.
func BenchmarkEngineStepLoopback(b *testing.B) {
	const n = 1024
	rel := fixedWidthRel(2, n, 7, 64)
	for _, kind := range []struct {
		name string
		make func(*EncryptedDB) (Engine, *oramCore)
	}{
		{"Or", func(edb *EncryptedDB) (Engine, *oramCore) {
			e := NewOrEngine(edb)
			return e, &e.oramCore
		}},
		{"Ex", func(edb *EncryptedDB) (Engine, *oramCore) {
			e, err := NewExEngine(edb)
			if err != nil {
				b.Fatal(err)
			}
			return e, &e.oramCore
		}},
	} {
		backend := store.NewServer()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := transport.NewServer(backend)
		go func() { _ = srv.Serve(l) }()
		client, err := transport.Dial(l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		rounds := store.WithRoundCounter(client)
		edb, err := Upload(rounds, crypto.MustNewCipher(crypto.MustNewKey()), "t", rel)
		if err != nil {
			b.Fatal(err)
		}
		eng, c := kind.make(edb)
		a0, a1 := relation.SingleAttr(0), relation.SingleAttr(1)
		for _, attr := range []int{0, 1} {
			if _, err := CardinalitySingle(eng, attr); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := CardinalityUnion(eng, a0, a1); err != nil {
			b.Fatal(err)
		}
		single, union := c.sets[a0], c.sets[a0.Union(a1)]
		accesses := func() (total int64) {
			for _, st := range c.sets {
				total += st.primary.Accesses() + st.secondary.Accesses()
			}
			return total
		}
		run := func(name string, record func(id int) error) {
			b.Run(kind.name+"/"+name, func(b *testing.B) {
				r0, acc0 := rounds.Rounds(), accesses()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := record(i % n); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(rounds.Rounds()-r0)/float64(b.N), "rounds/record")
				b.ReportMetric(float64(accesses()-acc0)/float64(b.N), "accesses/record")
			})
		}
		// Re-running a traversed record's step finds its key: the same
		// accesses as a first visit, and the partition is none the worse.
		run("Single", func(id int) error { return c.step(single, idKey(id), singleKey(edb.cipher, rel.Value(id, 0))) })
		run("Union", func(id int) error { return c.unionStep(union, id, c.sets[a0], c.sets[a1]) })

		_ = eng.Close()
		_ = client.Close()
		srv.Shutdown(0)
	}
}

// BenchmarkSortPartition is what one B_X array costs the Sort engine over an
// in-process server at n = 4096: never-cover is a set no union reads (key
// sort, labelling pass), cover is one that a union reads (the same, then the
// by-ID network on its first read). comparators/partition and
// rounds/partition are counts, the same on every run: 1 : 2 in networks, so
// 159 744 : 319 488 comparators, and 10 242 : 20 226 rounds (a network is
// 9 984 of them; creation, the column read, the pass and the delete are 258).
func BenchmarkSortPartition(b *testing.B) {
	const n = 4096
	rounds := store.WithRoundCounter(store.NewServer())
	edb, err := Upload(rounds, crypto.MustNewCipher(crypto.MustNewKey()), "t", fixedWidthRel(1, n, 7, 64))
	if err != nil {
		b.Fatal(err)
	}
	eng := NewSortEngine(edb, 1)
	x := relation.SingleAttr(0)
	for _, c := range []struct {
		name  string
		cover bool
	}{{"never-cover", false}, {"cover", true}} {
		b.Run(c.name, func(b *testing.B) {
			var comparators int64
			r0 := rounds.Rounds()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := CardinalitySingle(eng, 0); err != nil {
					b.Fatal(err)
				}
				st := eng.sets[x]
				if c.cover {
					if err := eng.restoreOrder(st); err != nil {
						b.Fatal(err)
					}
				}
				comparators += st.arr.Comparisons()
				if err := eng.Release(x); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(rounds.Rounds()-r0)/float64(b.N), "rounds/partition")
			b.ReportMetric(float64(comparators)/float64(b.N), "comparators/partition")
		})
	}
}
