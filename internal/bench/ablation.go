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
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
)

// The ablation for the design choice DESIGN.md calls out, attribute
// compression (§IV-B): with it, materializing π_X for any |X| ≥ 2 costs the
// same as |X| = 2; without it, every record fetches and decrypts |X| cells.

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
		s, err := newSetup(rel, core.ProtocolSort, 1, 0)
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
	wide, err := obsort.CreateStreamed(svc, cipher, fmt.Sprintf("raw:%x", uint64(x)), n, projWidth+8, nil,
		func(lo int, recs [][]byte) error {
			for k, rec := range recs {
				proj, err := projFor(lo + k)
				if err != nil {
					return err
				}
				clear(rec[copy(rec, proj):projWidth])
				binary.BigEndian.PutUint64(rec[projWidth:], uint64(lo+k))
			}
			return nil
		})
	if err != nil {
		return 0, fmt.Errorf("bench: building raw A for %v: %w", x, err)
	}
	// Sort by the raw key, count the distinct keys in one pass that rewrites
	// every record, sort back by id.
	if err := wide.Sort(func(a, b []byte) bool { return bytes.Compare(a[:projWidth], b[:projWidth]) < 0 }, 1); err != nil {
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
	if err := wide.Sort(func(a, b []byte) bool { return bytes.Compare(a[projWidth:], b[projWidth:]) < 0 }, 1); err != nil {
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
