package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/oblivfd/oblivfd/internal/crypto"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/trace"
)

// engineTraceGolden holds, for every secure engine at Workers 1 and 4, one
// line per server object a scripted run touched: the object's name, how many
// events it saw, and a digest of its own event sequence (operation, index,
// ciphertext bytes; ORAM leaves blanked by trace.ShapeOf). It was written by
// the engines of commit 76ffe46, the parent of the PR that put all of them on
// one scaffold, and a line that changes means a server can tell two builds
// apart, so a line changes only with a PR that sets out to change the trace
// and says so. Two have. When the ORAM steps went from Read-then-Write to one
// read-modify-write access, the primary ORAMs' lines (or#:N:KL, ex#:N:KLF —
// half the events) and Ex-ORAM's secondaries' (ex#:N:IKL — a deletion is one
// access there, not two) were regenerated. When the Sort engine stopped
// sorting back by r[ID] any set that no union reads as a cover, the lines of
// the four sets the scripted run never names in a Cover (sort#:3:B, :5:B,
// :6:B, :7:B) went from 2002 events to 1042: create, one network, the
// labelling scan, delete. The three sets that are read as covers (sort#:1:B,
// :2:B, :4:B) do their second network later in the run but at the same place
// in their own sequence — after the scan, before the first read — so their
// lines, like the column lines, are still the parent's. When the ORAM engines
// began to step a lattice level's sets together, record by record, the ID
// ORAMs of the sets the scripted run reads as covers (or#:1:IL, :2:IL, :4:IL;
// ex#:1:IKL, :2:IKL, :4:IKL) went from 159 to 111 events and 163 to 115: a
// record's label is read once for the group of targets that names the cover —
// the run's level 2 is the three pairs of three attributes — where it was read
// once per target, twice: 24 records × one access fewer × (ReadPath, WritePath)
// = 48 events. Nothing else on those lines
// moved (the set's own traversal, the inserted records' steps, Ex-ORAM's
// deletions), and every line of a target's own trees — KL, KLF, and the IL /
// IKL of the sets no union reads — is byte for byte what it was: a target is
// stepped once per record whichever sets are stepped beside it. When Or-ORAM's
// O^IL became a sealed array of one label cell per record id, every or#:N:IL
// line was regenerated: the object is an array now — created at the
// database's capacity, its 24 cells written a chunk at a time by the fill and
// one by each insertion, read a chunk at a time by the level that names the
// set as a cover and by each inserted record's unions, deleted — 28 events,
// 56 for the three covers, where the tree's were 55 and 111. Insertions
// stopped reading back the cells they had just written to build their single
// keys, and every insertion's row goes out in one batch: the or and ex column
// lines lost their two read-backs (28 → 26 events); the sort column lines, no
// insertion in them, are still the parent's. Every or#:N:KL, ex#:N:KLF and
// ex#:N:IKL line is byte for byte what it was. When the ORAM engines began to
// step a chunk's records as one batch per tree, every or#:N:KL, ex#:N:KLF and
// ex#:N:IKL line was regenerated, with the same event counts: reads of a
// chunk precede its write-backs. The column, or#:N:IL and sort lines are still
// what they were. When each tree got half the leaves and Setup began to write
// it in frames of a byte budget, every or#:N:KL, ex#:N:KLF and ex#:N:IKL line
// was regenerated again (55, 59 and 59 or 115 events, as before): tree shape
// and Setup framing are functions of the public capacity; per-object event
// counts unchanged. Every other line is still what it was.
const engineTraceGolden = "engine-trace-golden.txt"

// engineTraceOrderGolden holds what the per-object lines deliberately drop:
// one line per secure engine with the digest of the whole trace.ShapeOf
// sequence of the same scripted run at Workers = 1, interleaving across objects
// included. It was written by commit d6561f2, the parent of the PR that gave
// the lattice one Engine.Materialize call site per level, and pins that the
// serial path still issues the parent's engine calls in the parent's order.
// Its sort line was regenerated with the deferred by-ID sort (14 252 → 10 412
// events: four networks fewer, and a cover's second network now sits in front
// of its first child's reads instead of behind its own scan). Its or and ex
// lines were regenerated when the lattice began to hand the engine a whole
// level at every worker count and the ORAM engines to step the level
// record-major (1 180 → 1 036 and 1 236 → 1 092 events: the cover reads no
// longer made, and the sets of a level interleaved record by record where they
// followed one another). That retires, for those two, the
// pin this file was written for — a Workers = 1 run as the per-candidate loop
// it replaced; what holds instead is that the same ordered trace comes out
// under every worker count (TestSerialParallelEquivalence). They were
// regenerated again when insertions stopped reading their cells back (ex:
// 1 092 → 1 084 events, two insertions × four single sets) and Or-ORAM's
// O^IL became a label array (or: 1 036 → 755: no ID ORAM paths, a chunk's
// label cells read before its records' steps and written after them). They
// were regenerated again when the ORAM engines began to step a chunk's records
// as one batch per tree (or: 755 events, ex: 1 084, as before): reads of a
// chunk precede its write-backs. They were regenerated again when each tree
// got half the leaves and Setup began to write it in frames of a byte budget
// (or: 755 events, ex: 1 084, as before): tree shape and Setup framing are
// functions of the public capacity; per-object event counts unchanged.
const engineTraceOrderGolden = "engine-trace-order-golden.txt"

// instanceNumber is the per-process engine counter inside an object name. It
// depends on how many engines earlier tests built, so it is blanked; the
// prefix, the per-set sequence number and the suffix stay.
var instanceNumber = regexp.MustCompile(`^(or|ex|sort)[0-9]+:`)

// structureDigests renders a trace as the golden file's lines: events are
// grouped per object as trace.Shape.CanonicalPerStructure groups them (each
// object keeps its own order, the interleaving across objects is dropped),
// but the objects keep their names.
func structureDigests(events []trace.Event) []string {
	type group struct {
		n int
		b strings.Builder
	}
	groups := make(map[string]*group)
	for _, e := range trace.ShapeOf(events) {
		name := instanceNumber.ReplaceAllString(e.Object, "$1#:")
		g := groups[name]
		if g == nil {
			g = &group{}
			groups[name] = g
		}
		e.Object = ""
		g.n++
		g.b.WriteString(e.String())
		g.b.WriteByte('\n')
	}
	lines := make([]string, 0, len(groups))
	for name, g := range groups {
		lines = append(lines, fmt.Sprintf("%s %d %x", name, g.n, sha256.Sum256([]byte(g.b.String()))))
	}
	sort.Strings(lines)
	return lines
}

// sequenceDigest renders a whole trace, cross-object order included, as one
// golden line.
func sequenceDigest(name string, events []trace.Event) string {
	h := sha256.New()
	for _, e := range trace.ShapeOf(events) {
		e.Object = instanceNumber.ReplaceAllString(e.Object, "$1#:")
		fmt.Fprintln(h, e.String())
	}
	return fmt.Sprintf("%s %d %x", name, len(events), h.Sum(nil))
}

// compareGolden checks lines against testdata/<file>, writing the file (and
// failing) when it does not exist.
func compareGolden(t *testing.T, file string, got []string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist and was written from this build; check it in only if this build is the reference", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(got) != len(want) {
		t.Errorf("%s: %d lines, golden file has %d", file, len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("%s line %d:\n got  %s\n want %s", file, i+1, got[i], want[i])
		}
	}
}

// goldenTailRows are the records the dynamic tails insert: one that joins
// existing groups in every column and one that opens a new group in each.
var goldenTailRows = []relation.Row{
	{"000001", "000001", "000099", "000001"},
	{"000077", "000077", "000077", "000077"},
}

func TestEngineTraceGolden(t *testing.T) {
	rel := parallelTestRel(24)
	m := rel.NumAttrs()

	// revalidate checks every cached cardinality against the plaintext
	// engine that was given the same script.
	revalidate := func(t *testing.T, eng Engine, oracle *PlainEngine, sets map[relation.AttrSet]int) {
		t.Helper()
		for x := range sets {
			if _, err := materializeChain(oracle, x, new([]relation.AttrSet)); err != nil {
				t.Fatal(err)
			}
			got, ok := eng.Cardinality(x)
			want, _ := oracle.Cardinality(x)
			if !ok || got != want {
				t.Errorf("after the tail |π_%v| = %d (cached=%v), want %d", x, got, ok, want)
			}
		}
	}
	type inserter interface {
		Insert(relation.Row) (int, error)
	}
	insertTail := func(t *testing.T, eng inserter, oracle *PlainEngine) {
		t.Helper()
		for _, row := range goldenTailRows {
			if _, err := eng.Insert(row); err != nil {
				t.Fatal(err)
			}
			if _, err := oracle.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}

	cases := []struct {
		name string
		keep bool
		make func(t *testing.T, edb *EncryptedDB) Engine
		tail func(t *testing.T, eng Engine, res *Result)
	}{
		{name: "sort", make: func(t *testing.T, edb *EncryptedDB) Engine { return NewSortEngine(edb, 1) }},
		{name: "or", keep: true,
			make: func(t *testing.T, edb *EncryptedDB) Engine { return NewOrEngine(edb) },
			tail: func(t *testing.T, eng Engine, res *Result) {
				oracle := NewPlainEngine(rel)
				insertTail(t, eng.(*OrEngine), oracle)
				revalidate(t, eng, oracle, res.Cardinalities)
			}},
		{name: "ex", keep: true,
			make: func(t *testing.T, edb *EncryptedDB) Engine {
				eng, err := NewExEngine(edb)
				if err != nil {
					t.Fatal(err)
				}
				return eng
			},
			tail: func(t *testing.T, eng Engine, res *Result) {
				oracle := NewPlainEngine(rel)
				ex := eng.(*ExEngine)
				insertTail(t, ex, oracle)
				for _, id := range []int{3, rel.NumRows()} { // an original record, then the first inserted one
					if err := ex.Delete(id); err != nil {
						t.Fatal(err)
					}
					if err := oracle.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
				revalidate(t, eng, oracle, res.Cardinalities)
			}},
	}

	var got, order []string
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			srv := store.NewServer()
			edb, err := UploadWithCapacity(srv, crypto.MustNewCipher(crypto.MustNewKey()), "t", rel, rel.NumRows()+len(goldenTailRows))
			if err != nil {
				t.Fatal(err)
			}
			eng := c.make(t, edb)
			srv.Trace().Reset()
			srv.Trace().Enable()
			res, err := Discover(eng, m, &Options{Workers: workers, KeepPartitions: c.keep})
			if err != nil {
				t.Fatal(err)
			}
			if c.tail != nil {
				c.tail(t, eng, res)
			}
			if workers == 1 { // before Close, which releases kept sets in map order
				order = append(order, sequenceDigest(c.name, srv.Trace().Events()))
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("# %s workers=%d", c.name, workers))
			got = append(got, structureDigests(srv.Trace().Events())...)
		}
	}
	compareGolden(t, engineTraceGolden, got)
	compareGolden(t, engineTraceOrderGolden, order)
}

// TestParentCheckpointResumes: a checkpoint file and server directory per ORAM
// engine in the OFDCKPT4 format (the 6×3 relation below, crashed after lattice
// level 1) resume on this build, finish discovery with the plaintext engine's
// FD set, and keep accepting mutations — the EngineState / SetState /
// oram.State layout, the Kind tags, the object names the handles reattach to
// and the tree shape derived from each capacity are all still what the build
// that wrote them wrote. Both pairs are testdata/half-tree's, written by the
// build that gave each tree half the next power of two ≥ capacity leaves (the
// full-tree pairs in label-array/ and pr31/ are refused,
// TestFullTreeCheckpointIsRefused). They were written, by writeResumeFixture,
// with
//
//	rm -r internal/core/testdata/<dir> && go test -run TestParentCheckpointResumes ./internal/core/
//
// which writes a missing pair and fails.
func TestParentCheckpointResumes(t *testing.T) {
	rel := relation.MustFromRows(relation.MustNewSchema("A", "B", "C"), []relation.Row{
		{"a1", "b1", "c1"}, {"a1", "b1", "c2"}, {"a2", "b2", "c1"}, {"a2", "b2", "c3"}, {"a3", "b1", "c2"}, {"a3", "b1", "c1"},
	})
	want, err := Discover(NewPlainEngine(rel), rel.NumAttrs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fixtures := filepath.Join("testdata", "half-tree")
	for _, kind := range []string{"or", "ex"} {
		if _, err := os.Stat(filepath.Join(fixtures, kind+".ckpt")); errors.Is(err, os.ErrNotExist) {
			writeResumeFixture(t, rel, fixtures, kind)
			t.Fatalf("wrote %s's %s pair; run the test again", fixtures, kind)
		}
	}
	for _, kind := range []string{"or", "ex"} {
		t.Run(kind, func(t *testing.T) {
			dir := copyDir(t, filepath.Join(fixtures, kind+"-state")) // opening at an epoch discards what is newer
			eng, cp, err := resumeFixture(t, dir, filepath.Join(fixtures, kind+".ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Discover(eng, cp.Lattice.M, &Options{Resume: cp.Lattice})
			if err != nil {
				t.Fatal(err)
			}
			if !relation.FDSetEqual(got.Minimal, want.Minimal) {
				t.Errorf("resumed FDs = %v, want %v", got.Minimal, want.Minimal)
			}
			id, err := eng.(interface {
				Insert(relation.Row) (int, error)
			}).Insert(relation.Row{"a9", "b9", "c9"})
			if err != nil {
				t.Fatal(err)
			}
			if dyn, ok := eng.(DynamicEngine); ok {
				if err := dyn.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFullTreeCheckpointIsRefused: label-array/or.ckpt and pr31/ex.ckpt
// (OFDCKPT3) were written at commits whose trees had one leaf per unit of
// capacity, twice this build's. Attached, their states would name leaves
// past the tree or read buckets of another shape; the checkpoint is refused
// by its magic, naming the last commit that resumed it, before the server
// directory beside it is opened, so the directory is left as it was.
func TestFullTreeCheckpointIsRefused(t *testing.T) {
	for _, pair := range [][2]string{{"label-array", "or"}, {"pr31", "ex"}} {
		file := filepath.Join(pair[0], pair[1]+".ckpt")
		requireRetiredCheckpointRefused(t, file, "OFDCKPT3", "520a5d8")
		dir := copyDir(t, filepath.Join("testdata", pair[0], pair[1]+"-state"))
		before := readFiles(t, dir)
		if _, _, err := resumeFixture(t, dir, filepath.Join("testdata", file)); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Errorf("%s: resume = %v, want ErrCorruptCheckpoint", file, err)
		}
		if after := readFiles(t, dir); !reflect.DeepEqual(before, after) {
			t.Errorf("%s: the refused resume changed the server directory", file)
		}
	}
}

// resumeFixture resumes the engine of the checkpoint file ckpt against the
// durable server directory dir, in the order fddiscover -resume does: read the
// checkpoint, open the directory at its epoch, verify, attach, resume. The
// server is closed when the test ends.
func resumeFixture(t *testing.T, dir, ckpt string) (Engine, *Checkpoint, error) {
	cp, err := ReadCheckpointFile(ckpt)
	if err != nil {
		return nil, nil, err
	}
	srv, err := store.OpenDirAtEpoch(dir, cp.Epoch, store.DurableOptions{})
	if err != nil {
		return nil, nil, err
	}
	t.Cleanup(func() { srv.Close() })
	if err := VerifyEpoch(srv, cp.Epoch); err != nil {
		return nil, nil, err
	}
	edb, err := AttachEDB(srv, cp.EDB)
	if err != nil {
		return nil, nil, err
	}
	eng, err := ResumeEngine(edb, cp.Engine)
	return eng, cp, err
}

// copyDir copies the files of src into a fresh temporary directory and
// returns it.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range readFiles(t, src) {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// readFiles returns the contents of each file in dir, by name.
func readFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(files))
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[f.Name()] = data
	}
	return out
}

// writeResumeFixture writes one engine's resume fixture into dir: a
// durable server directory (<kind>-state) and a checkpoint file (<kind>.ckpt)
// as a discovery that marked epoch 2, after lattice level 1, and then crashed
// leaves them.
func writeResumeFixture(t *testing.T, rel *relation.Relation, dir, kind string) {
	srv, err := store.OpenDir(filepath.Join(dir, kind+"-state"), store.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	edb, err := UploadWithCapacity(srv, crypto.MustNewCipher(crypto.MustNewKey()), "fixture-"+kind, rel, rel.NumRows()+2)
	if err != nil {
		t.Fatal(err)
	}
	var eng CheckpointableEngine = NewOrEngine(edb)
	if kind == "ex" {
		if eng, err = NewExEngine(edb); err != nil {
			t.Fatal(err)
		}
	}
	_, err = Discover(eng, rel.NumAttrs(), &Options{KeepPartitions: true, Checkpoint: func(ls *LatticeState) error {
		if ls.NextLevel < 2 {
			return nil
		}
		if err := srv.Checkpoint(int64(ls.NextLevel)); err != nil {
			return err
		}
		cp := &Checkpoint{Epoch: int64(ls.NextLevel), EDB: edb.State(), Engine: eng.CheckpointState(), Lattice: ls}
		if err := WriteCheckpointFile(filepath.Join(dir, kind+".ckpt"), cp); err != nil {
			return err
		}
		return errSimulatedCrash
	}})
	if !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("writing the %s fixture: %v", kind, err)
	}
}
