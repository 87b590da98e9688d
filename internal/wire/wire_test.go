package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	idx := []int64{0, 1, 2, 64, 63, math.MinInt64, math.MaxInt64, -1}
	run := [][]byte{{1}, nil, {}, make([]byte, 300)}
	var b []byte
	b = append(b, 7)
	b = binary.AppendUvarint(b, 1<<40)
	b = binary.AppendVarint(b, -5)
	b = PutString(b, "name")
	b = PutIndices(b, idx)
	b = PutRun(b, run)
	b = PutRun(b, nil)
	b = PutIndices(b, nil)

	for _, slab := range []bool{false, true} {
		r := NewReader(b)
		if v := r.Byte(); v != 7 {
			t.Errorf("Byte = %d", v)
		}
		if v := r.Uvarint(); v != 1<<40 {
			t.Errorf("Uvarint = %d", v)
		}
		if v := r.Int(); v != -5 {
			t.Errorf("Int = %d", v)
		}
		if v := r.String(); v != "name" {
			t.Errorf("String = %q", v)
		}
		if v := r.Indices(); !reflect.DeepEqual(v, idx) {
			t.Errorf("Indices = %v", v)
		}
		got := r.Run(slab)
		if want := [][]byte{{1}, nil, nil, make([]byte, 300)}; !reflect.DeepEqual(got, want) {
			t.Errorf("Run(slab=%v) = %v", slab, got)
		}
		if r.Run(slab) != nil || r.Indices() != nil {
			t.Error("empty lists did not decode as nil")
		}
		if err := r.Finish(); err != nil {
			t.Errorf("Finish: %v", err)
		}
		// Nothing a Run returns aliases the input or a neighbour.
		got[0] = append(got[0], 0xFF)
		if got[3][0] != 0 {
			t.Errorf("Run(slab=%v): appending to one element overwrote the next", slab)
		}
	}
}

func TestSizesMatchWriters(t *testing.T) {
	idx := []int64{5, 4, 1 << 40, -1 << 40, math.MinInt64, math.MaxInt64}
	run := [][]byte{nil, make([]byte, 127), make([]byte, 128), make([]byte, 1<<14)}
	if got, want := SizeIndices(idx), len(PutIndices(nil, idx)); got != want {
		t.Errorf("SizeIndices = %d, encoding is %d", got, want)
	}
	if got, want := SizeRun(run), len(PutRun(nil, run)); got != want {
		t.Errorf("SizeRun = %d, encoding is %d", got, want)
	}
	if got, want := SizeBytes(300), len(PutBytes(nil, make([]byte, 300))); got != want {
		t.Errorf("SizeBytes = %d, encoding is %d", got, want)
	}
}

func TestReaderRefusesWhatIsNotThere(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<32) // a count, then nothing
	cases := map[string]func(*Reader){
		"bytes":    func(r *Reader) { r.Bytes() },
		"indices":  func(r *Reader) { r.Indices() },
		"run":      func(r *Reader) { r.Run(false) },
		"slab run": func(r *Reader) { r.Run(true) },
		"count":    func(r *Reader) { r.Count() },
	}
	for name, read := range cases {
		r := NewReader(huge)
		read(r)
		if !errors.Is(r.Err(), ErrMalformed) {
			t.Errorf("%s: declared 2³² elements in %d bytes: err = %v", name, len(huge), r.Err())
		}
	}
	for name, b := range map[string][]byte{
		"empty":              nil,
		"unterminated":       {0x80, 0x80},
		"overlong":           {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"short bytes":        {5, 1, 2},
		"short run element":  {2, 1, 9, 4, 1},
		"short index":        {3, 2, 2},
		"uint32 overflow":    binary.AppendUvarint(nil, 1<<32),
		"trailing after all": {0, 0},
	} {
		r := NewReader(b)
		switch name {
		case "short bytes":
			r.Bytes()
		case "short run element":
			r.Run(true)
		case "short index":
			r.Indices()
		case "uint32 overflow":
			r.Uint32()
		case "trailing after all":
			r.Byte()
		default:
			r.Uvarint()
		}
		if err := r.Finish(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Finish = %v, want ErrMalformed", name, err)
		}
	}
}

func TestFirstErrorSticks(t *testing.T) {
	r := NewReader([]byte{9})
	r.Fixed(4)
	first := r.Err()
	if first == nil {
		t.Fatal("short Fixed did not fail")
	}
	if v := r.Byte(); v != 0 {
		t.Errorf("read after a failure returned %d", v)
	}
	r.Fail("a later verdict")
	if r.Err() != first || r.Finish() != first {
		t.Errorf("error changed after the first: %v", r.Err())
	}
}

func TestAppendNGrowsWithWhatArrives(t *testing.T) {
	src := make([]byte, 3*readStep+17)
	for i := range src {
		src[i] = byte(i)
	}
	got, err := AppendN(bytes.NewReader(src), []byte{0xAA}, uint64(len(src)))
	if err != nil || len(got) != 1+len(src) || got[0] != 0xAA || !bytes.Equal(got[1:], src) {
		t.Fatalf("AppendN = %d bytes, %v", len(got), err)
	}
	// A declared gigabyte backed by ten bytes: the ten bytes, an error, and
	// a buffer no larger than one step.
	got, err = AppendN(bytes.NewReader(src[:10]), nil, 1<<30)
	if err != io.ErrUnexpectedEOF || !bytes.Equal(got, src[:10]) || cap(got) > 2*readStep {
		t.Errorf("short stream: %d bytes (cap %d), err %v", len(got), cap(got), err)
	}
	if got, err := AppendN(bytes.NewReader(nil), nil, 0); err != nil || len(got) != 0 {
		t.Errorf("n = 0: %d bytes, %v", len(got), err)
	}
}
