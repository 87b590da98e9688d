package core

import (
	"fmt"
	"net"
	"testing"

	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/telemetry"
	"github.com/oblivfd/oblivfd/internal/transport"
)

// loopbackRig is an ORAM engine over a loopback TCP connection, behind a round
// counter.
type loopbackRig struct {
	name   string
	eng    Engine
	core   *oramCore
	rounds *store.RoundCounter
}

// overLoopback uploads rel over a fresh loopback connection for Or-ORAM and
// then for Ex-ORAM and hands each engine to fn.
func overLoopback(b *testing.B, rel *relation.Relation, fn func(r *loopbackRig)) {
	for _, p := range rows(oramRow) {
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
		r := &loopbackRig{name: short(p), rounds: store.WithRoundCounter(client)}
		r.eng, _ = openFor[Engine](b, r.rounds, p, rel, opts{})
		r.core = oramOf(r.eng)
		fn(r)
		_ = r.eng.Close()
		_ = client.Close()
		srv.Shutdown(0)
	}
}

// run times step over the relation's n ids, round and round — a record at a
// time, or a whole level — then sends what the last one left owed, and reports the
// rounds and ORAM accesses one call cost, per unit: counts, the same on every
// run.
func (r *loopbackRig) run(b *testing.B, name, unit string, n int, step func(id int) error) {
	accesses := func() (total int64) {
		for _, st := range r.core.sets {
			total += st.primary.Accesses()
			if st.secondary != nil {
				total += st.secondary.Accesses()
			}
		}
		return total
	}
	b.Run(r.name+"/"+name, func(b *testing.B) {
		r0, acc0 := r.rounds.Rounds(), accesses()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := step(i % n); err != nil {
				b.Fatal(err)
			}
		}
		if err := r.core.pipe.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		b.ReportMetric(float64(r.rounds.Rounds()-r0)/float64(b.N), "rounds/"+unit)
		b.ReportMetric(float64(accesses()-acc0)/float64(b.N), "accesses/"+unit)
	})
}

// levelOf lays out the committed sets xs as a level, as a fill of them would:
// re-running a traversed record's step finds its keys — the same accesses as
// a first visit, and the partitions are none the worse.
func (r *loopbackRig) levelOf(xs ...relation.AttrSet) *level {
	group := make([]target[*oramState], len(xs))
	for i, x := range xs {
		st := r.core.sets[x]
		group[i] = target[*oramState]{set: x, st: st, cover: [2]*oramState{r.core.sets[st.cover[0]], r.core.sets[st.cover[1]]}}
	}
	return r.core.lay(new(level), group)
}

// BenchmarkEngineStepLoopback is one record of one set of an ORAM engine's
// traversal over a loopback TCP connection, as an insertion steps it with the
// record's row in hand — what an insertion pays per set, and the unit the
// exoram-dynamic workload's updates are made of. The |X| = 1 step is 1 access
// in 2 rounds in Or-ORAM (fetch, then write-back with the label cell) and 2 in
// 2 in Ex-ORAM; the |X| ≥ 2 one is 1 access in 3 rounds in Or-ORAM (the two
// cover cells first) and 4 in 3 in Ex-ORAM, for the trees of a 1024-record
// relation. rounds/record and accesses/record are counts, the same on every
// run; ns/op is mostly the round trips.
func BenchmarkEngineStepLoopback(b *testing.B) {
	const n = 1024
	rel := fixedWidthRel(2, n, 7, 64)
	overLoopback(b, rel, func(r *loopbackRig) {
		a0, a1 := relation.SingleAttr(0), relation.SingleAttr(1)
		if _, err := r.eng.Materialize([]Request{Single(0), Single(1), Union(a0, a1)}); err != nil {
			b.Fatal(err)
		}
		single, union := r.levelOf(a0), r.levelOf(a0.Union(a1))
		for _, c := range []struct {
			name string
			lv   *level
		}{{"Single", single}, {"Union", union}} {
			r.run(b, c.name, "record", n, func(id int) error {
				return r.core.stepChunks(c.lv, rel.Row(id), func(visit func([]int64) error) error { return visit([]int64{int64(id)}) })
			})
		}
	})
}

// BenchmarkEngineLevelLoopback is one whole lattice level — what the oram-tcp
// and exoram-dynamic discoveries are made of: w two-attribute sets over their
// c distinct covers (w = 1: c = 2; w = 3: the three pairs of three
// attributes, c = 3; w = 6: the six pairs of four, c = 4) stepped over n =
// 1024 records, 16 chunks of r = 64. A level costs 16 + 2 = 18 rounds
// whatever w is, a chunk's three stages overlapping its neighbours': in
// steady state a round carries one chunk's write-backs (with Or-ORAM's label
// cells), the next chunk's fetches (with Ex-ORAM's cover write-backs) and the
// covers' reads for the chunk after — where a chunk alone cost 3 rounds, a
// record at a time r + 2 and 2r + 1, and a set at a time 3r per set.
// Accesses are n·w and n·(2w + c). Re-stepping a traversed level finds its
// keys: the same accesses as a first visit, and the partitions are none the
// worse.
func BenchmarkEngineLevelLoopback(b *testing.B) {
	const n, m = 1024, 4
	rel := fixedWidthRel(m, n, 7, 64)
	overLoopback(b, rel, func(r *loopbackRig) {
		var reqs []Request
		var pairs []relation.AttrSet
		for i := 0; i < m; i++ {
			reqs = append(reqs, Single(i))
		}
		for j := 1; j < m; j++ { // {0,1} · {0,2} {1,2} · {0,3} {1,3} {2,3}
			for i := 0; i < j; i++ {
				u := Union(relation.SingleAttr(i), relation.SingleAttr(j))
				reqs, pairs = append(reqs, u), append(pairs, u.Set)
			}
		}
		if _, err := r.eng.Materialize(reqs); err != nil {
			b.Fatal(err)
		}
		for _, w := range []int{1, 3, 6} {
			lv := r.levelOf(pairs[:w]...)
			r.run(b, fmt.Sprintf("w=%d", w), "level", 1, func(int) error { return r.core.stepChunks(lv, nil, r.core.eachChunk) })
		}
	})
}

// BenchmarkSortPartition is what one B_X array costs the Sort engine over an
// in-process server at n = 4096: never-cover is a set no union reads (key
// sort, labelling pass), cover is one that a union reads (the same, then the
// by-ID network on its first read). comparators/partition and
// rounds/partition are counts, the same on every run: 1 : 2 in networks, so
// 159 744 : 319 488 comparators, and 5 498 : 10 802 rounds. A network is
// 78 sub-stages of 64 blocks in 4 chains, 64 + 4 calls each, 5 304 rounds;
// the other 194 are creation's 64 column reads and 64 writes, the labelling
// pass's 65 calls and the delete. The benchmark fails when its rounds leave
// this closed form. bytes/partition is the ciphertext both ways, from
// store.WithMetrics' counters: 8 507 904 : 14 178 816. The key network moves
// 8 226 816 of them — 78 stages × 128 runs of 412 bytes, read and written —
// and creation, the labelling pass (128 runs read at 412 bytes, written at
// 284) and the column read the other 281 088; the by-ID network moves 128
// runs of 284 bytes, 5 670 912.
func BenchmarkSortPartition(b *testing.B) {
	const n = 4096
	rounds := store.WithRoundCounter(store.NewServer())
	reg := telemetry.New()
	moved := func() int64 {
		return reg.Counter("oblivfd_store_bytes_read_total").Value() + reg.Counter("oblivfd_store_bytes_written_total").Value()
	}
	eng, _ := openFor[*SortEngine](b, store.WithMetrics(rounds, reg), ProtocolSort, fixedWidthRel(1, n, 7, 64), opts{})
	x := relation.SingleAttr(0)
	for _, c := range []struct {
		name  string
		cover bool
	}{{"never-cover", false}, {"cover", true}} {
		b.Run(c.name, func(b *testing.B) {
			var comparators int64
			r0, m0 := rounds.Rounds(), moved()
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
			const network, other = 78 * (64 + 4), 3*64 + 2
			networks := int64(1)
			if c.cover {
				networks = 2
			}
			if got, want := rounds.Rounds()-r0, int64(b.N)*(networks*network+other); got != want {
				b.Fatalf("%d rounds for %d partitions, want %d: %d network(s) of %d and %d other calls each", got, b.N, want, networks, network, other)
			}
			b.ReportMetric(float64(rounds.Rounds()-r0)/float64(b.N), "rounds/partition")
			b.ReportMetric(float64(comparators)/float64(b.N), "comparators/partition")
			b.ReportMetric(float64(moved()-m0)/float64(b.N), "bytes/partition")
		})
	}
}
