package bench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"github.com/oblivfd/oblivfd/internal/core"
	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/dataset"
	"github.com/oblivfd/oblivfd/internal/obsort"
	"github.com/oblivfd/oblivfd/internal/oram"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
)

// Two ablations for the design choices DESIGN.md calls out:
//
//   - attribute compression (§IV-B): with it, materializing π_X for any
//     |X| ≥ 2 costs the same as |X| = 2; without it, every record fetches
//     and decrypts |X| cells.
//   - the comparison network: the paper picks bitonic sorting for its
//     regularity and parallelism; Batcher's odd-even merge network needs
//     fewer comparators. AblationNetwork quantifies the gap.

// CompressionPoint is one (|X|, variant) measurement.
type CompressionPoint struct {
	SetSize    int
	Compressed time.Duration // marginal cost of the final union (§IV-B path)
	Raw        time.Duration // direct computation from r[X]
}

// AblationCompressionResult compares the two strategies as |X| grows.
type AblationCompressionResult struct {
	N      int
	Points []CompressionPoint
}

// ablationCellWidth is the cell size used by the compression ablation.
// Compression pays off when r[X] is long (the paper motivates it with
// "especially for the case where |X| is large", §IV-B); 64-byte cells model
// textual attributes like addresses or descriptions.
const ablationCellWidth = 64

// wideCellRel generates a relation of fixed-width 64-byte cells.
func wideCellRel(m, n int, seed int64) *relation.Relation {
	base := dataset.RND(m, n, seed)
	out := relation.New(base.Schema())
	for i := 0; i < n; i++ {
		row := make(relation.Row, m)
		for j := range row {
			v := base.Value(i, j)
			row[j] = v + strings.Repeat("#", ablationCellWidth-len(v))
		}
		if err := out.Append(row); err != nil {
			panic(err)
		}
	}
	return out
}

// AblationCompression measures, for growing |X|, the marginal cost of the
// final partition with attribute compression (the last CardinalityUnion,
// everything below it prematerialized) against computing it directly from
// the raw projected values.
func AblationCompression(n, maxSetSize int, seed int64) (*AblationCompressionResult, error) {
	if maxSetSize < 2 {
		maxSetSize = 2
	}
	rel := wideCellRel(maxSetSize, n, seed)
	res := &AblationCompressionResult{N: n}

	for size := 2; size <= maxSetSize; size++ {
		// Compressed: prematerialize the chain below the target set,
		// time only the final union step.
		s, err := newSetup(rel, MethodSort, 1, 0)
		if err != nil {
			return nil, err
		}
		for a := 0; a < size; a++ {
			if _, err := core.CardinalitySingle(s.eng, a); err != nil {
				s.close()
				return nil, err
			}
		}
		cur := relation.SingleAttr(0)
		for a := 1; a < size-1; a++ {
			if _, err := core.CardinalityUnion(s.eng, cur, relation.SingleAttr(a)); err != nil {
				s.close()
				return nil, err
			}
			cur = cur.Add(a)
		}
		start := time.Now()
		if _, err := core.CardinalityUnion(s.eng, cur, relation.SingleAttr(size-1)); err != nil {
			s.close()
			return nil, err
		}
		compressed := time.Since(start)
		s.close()

		// Raw: the same final partition from full projected values.
		srv := store.NewServer()
		cipher, err := crypto.NewCipher(crypto.MustNewKey())
		if err != nil {
			return nil, err
		}
		edb, err := core.Upload(srv, cipher, fmt.Sprintf("abl%d", size), rel)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		if _, err := rawCardinality(srv, cipher, edb, relation.FullSet(size)); err != nil {
			return nil, err
		}
		rawDur := time.Since(start)

		res.Points = append(res.Points, CompressionPoint{
			SetSize: size, Compressed: compressed, Raw: rawDur,
		})
	}
	return res, nil
}

// rawCardinality computes |π_X| without attribute compression: Algorithm 3
// with the full projected value r[X] as the sort key, so every record fetches
// and decrypts |X| cells and every compare-exchange ships |X| cells' worth of
// ciphertext. This is the baseline §IV-B's optimization replaces — its cost
// grows with |X|, where a compressed union's is constant.
func rawCardinality(svc store.Service, cipher *crypto.Cipher, edb *core.EncryptedDB, x relation.AttrSet) (int, error) {
	if x.IsEmpty() {
		return 0, fmt.Errorf("bench: raw partition of the empty set")
	}
	n, attrs := edb.NumRows(), x.Attrs()
	projFor := func(i int) ([]byte, error) {
		var proj []byte
		for _, a := range attrs {
			v, err := edb.CellValue(i, a)
			if err != nil {
				return nil, err
			}
			// Length-prefixed so ("ab","c") ≠ ("a","bc").
			proj = binary.BigEndian.AppendUint64(proj, uint64(len(v)))
			proj = append(proj, v...)
		}
		return proj, nil
	}
	// Fixed record geometry needs the widest projection (cell lengths are
	// public size metadata, but the uncompressed algorithm still has to scan
	// them).
	projWidth := 0
	for i := 0; i < n; i++ {
		proj, err := projFor(i)
		if err != nil {
			return 0, err
		}
		if len(proj) > projWidth {
			projWidth = len(proj)
		}
	}
	// A = [r[X] | pad | r[ID]].
	wide, err := obsort.CreateStreamed(svc, cipher, fmt.Sprintf("raw:%x", uint64(x)), n, projWidth+8,
		func(i int) ([]byte, error) {
			proj, err := projFor(i)
			if err != nil {
				return nil, err
			}
			rec := make([]byte, projWidth+8)
			copy(rec, proj)
			binary.BigEndian.PutUint64(rec[projWidth:], uint64(i))
			return rec, nil
		})
	if err != nil {
		return 0, fmt.Errorf("bench: building raw A for %v: %w", x, err)
	}
	// Sort by the raw key, count the distinct keys in one pass that rewrites
	// every record, sort back by id.
	if err := wide.SortNetwork(func(a, b []byte) bool { return bytes.Compare(a[:projWidth], b[:projWidth]) < 0 }, 1, obsort.Bitonic); err != nil {
		return 0, err
	}
	var prev []byte
	card := 0
	err = wide.Scan(func(i int, rec []byte) ([]byte, error) {
		if i == 0 || !bytes.Equal(rec[:projWidth], prev) {
			card++
			prev = append(prev[:0], rec[:projWidth]...)
		}
		return rec, nil
	})
	if err != nil {
		return 0, err
	}
	if err := wide.SortNetwork(func(a, b []byte) bool { return bytes.Compare(a[projWidth:], b[projWidth:]) < 0 }, 1, obsort.Bitonic); err != nil {
		return 0, err
	}
	return card, wide.Destroy()
}

// Render prints the comparison.
func (r *AblationCompressionResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: attribute compression (§IV-B), marginal cost of π_X at n=%d\n", r.N)
	fmt.Fprintf(&b, "%6s %14s %14s %8s\n", "|X|", "compressed", "raw r[X]", "ratio")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%6d %14s %14s %7.2fx\n", p.SetSize,
			fmtDur(p.Compressed), fmtDur(p.Raw), float64(p.Raw)/float64(p.Compressed))
	}
	b.WriteString("Expected shape: compressed cost is flat in |X|; raw cost grows with |X|\n(every record fetches and decrypts |X| cells).\n")
	return b.String()
}

// NetworkPoint is one (n, network) comparator-and-runtime measurement.
type NetworkPoint struct {
	N           int
	Network     string
	Comparators int64
	Runtime     time.Duration
}

// AblationNetworkResult compares the two comparison networks.
type AblationNetworkResult struct {
	Points []NetworkPoint
}

// AblationNetwork sorts the same encrypted arrays with both networks.
func AblationNetwork(sizes []int, seed int64) (*AblationNetworkResult, error) {
	res := &AblationNetworkResult{}
	for _, n := range sizes {
		rel := dataset.RND(1, n, seed+int64(n))
		for _, network := range []struct {
			name string
			net  obsort.Network
		}{{"bitonic", obsort.Bitonic}, {"odd-even", obsort.OddEvenMerge}} {
			srv := store.NewServer()
			cipher, err := crypto.NewCipher(crypto.MustNewKey())
			if err != nil {
				return nil, err
			}
			recs := make([][]byte, n)
			for i := 0; i < n; i++ {
				rec := make([]byte, 16)
				binary.BigEndian.PutUint64(rec, cipher.PRF([]byte(rel.Value(i, 0))))
				binary.BigEndian.PutUint64(rec[8:], uint64(i))
				recs[i] = rec
			}
			arr, err := obsort.Create(srv, cipher, "abl", recs)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if err := arr.SortNetwork(lessFirst8, 1, network.net); err != nil {
				return nil, err
			}
			res.Points = append(res.Points, NetworkPoint{
				N: n, Network: network.name,
				Comparators: arr.Comparisons(), Runtime: time.Since(start),
			})
		}
	}
	return res, nil
}

// ORAMPoint is one (construction, n) measurement of a full partition
// computation with the Or-ORAM method.
type ORAMPoint struct {
	Construction string
	N            int
	Runtime      time.Duration
	ServerOps    int64 // cells and paths the server was asked to read or write
	ServerBytes  int64
	ClientBytes  int
}

// AblationORAMResult compares PathORAM (the paper's choice) with the
// trivial linear-scan ORAM backing the same Or-ORAM algorithm.
type AblationORAMResult struct {
	Points []ORAMPoint
}

// AblationORAM measures one single-attribute partition per construction
// per n. Linear wins below a small crossover (no tree bookkeeping, O(1)
// client memory) and loses badly as n grows (O(n) per access vs O(log n)).
func AblationORAM(sizes []int, seed int64) (*AblationORAMResult, error) {
	res := &AblationORAMResult{}
	for _, n := range sizes {
		rel := dataset.RND(1, n, seed+int64(n))
		for _, c := range []struct {
			name    string
			factory oram.Factory
		}{{"path-oram", oram.PathFactory}, {"linear", oram.LinearFactory}} {
			srv := store.NewServer()
			cipher, err := crypto.NewCipher(crypto.MustNewKey())
			if err != nil {
				return nil, err
			}
			edb, err := core.Upload(srv, cipher, fmt.Sprintf("oa-%s-%d", c.name, n), rel)
			if err != nil {
				return nil, err
			}
			eng := core.NewOrEngine(edb)
			eng.Factory = c.factory
			before, _ := srv.Stats()
			ops := srv.Trace().TotalOps()
			start := time.Now()
			if _, err := core.CardinalitySingle(eng, 0); err != nil {
				return nil, fmt.Errorf("bench: oram ablation %s n=%d: %w", c.name, n, err)
			}
			after, _ := srv.Stats()
			res.Points = append(res.Points, ORAMPoint{
				Construction: c.name,
				N:            n,
				Runtime:      time.Since(start),
				ServerOps:    srv.Trace().TotalOps() - ops,
				ServerBytes:  after.StoredBytes - before.StoredBytes,
				ClientBytes:  eng.ClientMemoryBytes(),
			})
			_ = eng.Close()
		}
	}
	return res, nil
}

// Render prints the construction comparison.
func (r *AblationORAMResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: ORAM construction (PathORAM — the paper's choice — vs linear scan)\n")
	fmt.Fprintf(&b, "%8s %10s %12s %12s %12s %12s\n", "n", "oram", "runtime", "server-ops", "server-sto", "client-mem")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8d %10s %12s %12d %12s %12s\n", p.N, p.Construction,
			fmtDur(p.Runtime), p.ServerOps, fmtBytes(p.ServerBytes), fmtBytes(int64(p.ClientBytes)))
	}
	b.WriteString("Expected shape: linear wins only at very small n and has O(1) client memory;\nPathORAM's O(log n) accesses dominate beyond the crossover — the paper's choice.\n")
	return b.String()
}

// lessFirst8 orders records by their leading 8 bytes.
func lessFirst8(a, b []byte) bool { return bytes.Compare(a[:8], b[:8]) < 0 }

// Render prints the network comparison.
func (r *AblationNetworkResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: comparison network (bitonic — the paper's choice — vs odd-even merge)\n")
	fmt.Fprintf(&b, "%8s %10s %12s %12s\n", "n", "network", "comparators", "runtime")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8d %10s %12d %12s\n", p.N, p.Network, p.Comparators, fmtDur(p.Runtime))
	}
	b.WriteString("Expected shape: odd-even uses ~25% fewer comparators; both are O(n log² n).\nThe paper prefers bitonic for its regular, fully balanced stages.\n")
	return b.String()
}
