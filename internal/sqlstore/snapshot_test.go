package sqlstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"edgeejb/internal/memento"
	"edgeejb/internal/wire"
)

// snapTable is one table of a hand-built snapshot.
type snapTable struct {
	name    string
	indexes []string
	rows    []memento.Memento
}

// encodeSnapshot writes a v2 snapshot of whatever tables it is given,
// consistent or not, in the layout Dump writes.
func encodeSnapshot(inc, counter uint64, tables ...snapTable) []byte {
	names := new(wire.Names)
	dst := binary.AppendUvarint([]byte(snapshotMagic), inc)
	dst = binary.AppendUvarint(dst, counter)
	dst = binary.AppendUvarint(dst, uint64(len(tables)))
	for _, st := range tables {
		dst = wire.AppendName(dst, names, st.name)
		dst = binary.AppendUvarint(dst, uint64(len(st.indexes)))
		for _, field := range st.indexes {
			dst = wire.AppendName(dst, names, field)
		}
		dst = binary.AppendUvarint(dst, uint64(len(st.rows)))
		for _, m := range st.rows {
			dst = memento.AppendMemento(dst, names, m)
		}
	}
	return dst
}

func TestSnapshotRoundTrip(t *testing.T) {
	src := New()
	defer src.Close()
	if err := src.CreateIndex("h", "acct"); err != nil {
		t.Fatal(err)
	}
	negZero := memento.Float(math.Copysign(0, -1))
	nan := memento.Float(math.Float64frombits(0x7ff8_0000_dead_beef))
	src.Seed(
		acctRow("1", "a", 10),
		acctRow("2", "b", 20),
		mem("other", "x", 0, intFields(5)),
		mem("other", "f", 0, memento.Fields{"neg": negZero, "nan": nan, "none": {}}),
	)
	// Commit a change so versions differ from 1.
	ctx := context.Background()
	tx := mustBegin(t, src)
	if err := tx.Put(ctx, acctRow("1", "a", 11)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := src.Dump(&buf); err != nil {
		t.Fatal(err)
	}

	dst := New()
	defer dst.Close()
	if err := dst.Restore(&buf); err != nil {
		t.Fatal(err)
	}

	// Rows, versions and values must match exactly.
	for _, key := range []memento.Key{
		{Table: "h", ID: "1"}, {Table: "h", ID: "2"}, {Table: "other", ID: "x"},
	} {
		vSrc, err := src.CurrentVersion(key)
		if err != nil {
			t.Fatal(err)
		}
		vDst, err := dst.CurrentVersion(key)
		if err != nil {
			t.Fatalf("%s missing after restore: %v", key, err)
		}
		if vSrc != vDst {
			t.Errorf("%s version %d != %d", key, vDst, vSrc)
		}
	}
	// Indexes are restored and functional.
	if got := dst.Indexes("h"); len(got) != 1 || got[0] != "acct" {
		t.Errorf("restored indexes = %v", got)
	}
	got := queryAll(t, dst, acctQuery("a"))
	if len(got) != 1 || got[0].Fields["qty"].Int != 11 {
		t.Errorf("restored indexed query = %v", got)
	}
	if dst.Stats().IndexProbes == 0 {
		t.Error("restored store did not use its index")
	}
	// Every cell reads back bit for bit: -0 stays -0, and a NaN keeps
	// its payload.
	tx = mustBegin(t, dst)
	defer tx.Abort()
	f, err := tx.Get(ctx, "other", "f")
	if err != nil {
		t.Fatal(err)
	}
	if !sameFields(f.Fields, memento.Fields{"neg": negZero, "nan": nan, "none": {}}) {
		t.Errorf("restored float cells = %#v, want -0, the NaN's bits and a zero value", f.Fields)
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	s := New()
	defer s.Close()
	// Garbage, and any file without the v2 magic (a v1 gob snapshot
	// among them), is not a snapshot.
	for _, garbage := range []string{"not a snapshot", "", snapshotMagic[:len(snapshotMagic)-1] + "1"} {
		if err := s.Restore(strings.NewReader(garbage)); err == nil || !strings.Contains(err.Error(), "not a snapshot") {
			t.Errorf("Restore(%q) = %v, want not a snapshot", garbage, err)
		}
	}
	var buf bytes.Buffer
	other := New()
	defer other.Close()
	other.Seed(mem("t", "1", 0, intFields(1)))
	if err := other.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	// A snapshot's rows are whole: a row as an update's changed cells
	// (presence byte 2) is refused, and so is a presence byte past 2.
	delta := mem("t", "1", 1, intFields(1))
	delta.Delta = true
	whole := encodeSnapshot(0, 1, snapTable{name: "t", rows: []memento.Memento{mem("t", "1", 1, intFields(1))}})
	// The file ends in the row's fields: presence, count, the literal
	// "v" (0, 1, 'v') and Int(1) (kind, zigzag 2).
	presence3 := bytes.Clone(whole)
	if presence3[len(presence3)-7] != 1 {
		t.Fatalf("no presence byte 1 where the row's fields open: % x", whole)
	}
	presence3[len(presence3)-7] = 3
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"truncated", buf.Bytes()[:buf.Len()-1]},
		{"trailing byte", append(bytes.Clone(buf.Bytes()), 0)},
		{"changed cells", encodeSnapshot(0, 1, snapTable{name: "t", rows: []memento.Memento{delta}})},
		{"presence byte 3", presence3},
	} {
		if err := s.Restore(bytes.NewReader(tc.data)); err == nil || !strings.Contains(err.Error(), "decode snapshot") {
			t.Errorf("%s snapshot: err = %v, want a decode failure", tc.name, err)
		}
	}
}

func TestSnapshotFileAtomicInstall(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")

	s := New()
	defer s.Close()
	s.Seed(mem("t", "1", 0, intFields(7)))
	if err := s.DumpFile(path); err != nil {
		t.Fatal(err)
	}
	s2 := New()
	defer s2.Close()
	if err := s2.RestoreFile(path); err != nil {
		t.Fatal(err)
	}
	if v, err := s2.CurrentVersion(memento.Key{Table: "t", ID: "1"}); err != nil || v != 1 {
		t.Fatalf("restored row: v=%d err=%v", v, err)
	}
	if err := s2.RestoreFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// Property: dump∘restore is the identity on committed state, for random
// stores.
func TestSnapshotIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := New()
		defer src.Close()
		tables := []string{"a", "b"}
		n := rng.Intn(20)
		for i := 0; i < n; i++ {
			src.Seed(memento.Memento{
				Key: memento.Key{
					Table: tables[rng.Intn(len(tables))],
					ID:    string(rune('a' + rng.Intn(10))),
				},
				Fields: memento.Fields{"v": memento.Int(rng.Int63n(1000))},
			})
		}
		var buf bytes.Buffer
		if err := src.Dump(&buf); err != nil {
			return false
		}
		dst := New()
		defer dst.Close()
		if err := dst.Restore(&buf); err != nil {
			return false
		}
		// Compare full scans per table.
		ctx := context.Background()
		for _, table := range tables {
			q := memento.Query{Table: table}
			txS, _ := src.Begin(ctx)
			wantRows, err := txS.Query(ctx, q)
			txS.Abort()
			if err != nil {
				return false
			}
			txD, _ := dst.Begin(ctx)
			gotRows, err := txD.Query(ctx, q)
			txD.Abort()
			if err != nil {
				return false
			}
			if len(wantRows) != len(gotRows) {
				return false
			}
			for i := range wantRows {
				if !wantRows[i].Equal(gotRows[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestRestoreRejectsInconsistentSnapshot: a snapshot whose tables
// contradict themselves is refused for its own reason, and the refusal
// leaves the store's previous committed state in place.
func TestRestoreRejectsInconsistentSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tables []snapTable
		reason string
	}{
		{"row filed under another table", []snapTable{
			{name: "t", rows: []memento.Memento{mem("other", "1", 3, intFields(1))}},
		}, `table "t" holds row other/1`},
		{"table named twice", []snapTable{
			{name: "t", rows: []memento.Memento{mem("t", "1", 3, intFields(1))}},
			{name: "t", rows: []memento.Memento{mem("t", "2", 3, intFields(2))}},
		}, `holds table "t" twice`},
		{"row held twice", []snapTable{
			{name: "t", rows: []memento.Memento{mem("t", "1", 3, intFields(1)), mem("t", "1", 4, intFields(2))}},
		}, "holds row t/1 twice"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			defer s.Close()
			s.Seed(mem("kept", "k", 0, intFields(7)))
			err := s.Restore(bytes.NewReader(encodeSnapshot(0, 0, tc.tables...)))
			if err == nil || !strings.Contains(err.Error(), tc.reason) {
				t.Fatalf("err = %v, want one naming %q", err, tc.reason)
			}
			if v, err := s.CurrentVersion(memento.Key{Table: "kept", ID: "k"}); err != nil || v != 1 {
				t.Fatalf("failed restore disturbed the store: v=%d err=%v", v, err)
			}
			if _, err := s.CurrentVersion(memento.Key{Table: "t", ID: "1"}); err == nil {
				t.Fatal("failed restore installed part of the snapshot")
			}
		})
	}
}

// TestRestoreClaimedCountReservesLittle: a snapshot's table and row
// counts are claims. One that claims an element per byte of a 4 MiB
// tail no element decodes from is refused at the cost of its bytes,
// not of the count: the decoder reserves wire.Prealloc and grows.
func TestRestoreClaimedCountReservesLittle(t *testing.T) {
	const tail = 4 << 20
	head := map[string][]byte{
		"tables": encodeSnapshot(0, 0),
		"rows":   encodeSnapshot(0, 0, snapTable{name: "t"}),
	}
	for name, h := range head {
		data := binary.AppendUvarint(bytes.Clone(h[:len(h)-1]), tail)
		data = append(data, bytes.Repeat([]byte{0xff}, tail)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err := readSnapshot(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: 4 MiB of 0xff accepted as elements", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
			t.Errorf("%s: decoding a 4 MiB snapshot allocated %d MiB", name, got>>20)
		}
	}
}

// TestRestoreFileClaimsIncarnation: RestoreFile writes the incarnation
// it runs at back to its file before it returns, so two crashes in a
// row with no snapshot between them restore at two incarnations, and
// the second store issues no number the first one did.
func TestRestoreFileClaimsIncarnation(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "snap")
	src := New()
	src.Seed(mem("t", "1", 0, intFields(1)))
	if err := src.DumpFile(path); err != nil {
		t.Fatal(err)
	}
	src.Close()

	issued := map[uint64]int{}
	for run := 1; run <= 2; run++ {
		s := New()
		if err := s.RestoreFile(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if inc, _, _, err := readSnapshot(data); err != nil || inc != uint64(run) {
			t.Fatalf("run %d: file holds incarnation %d (%v), want %d", run, inc, err, run)
		}
		key := memento.Key{Table: "t", ID: "1"}
		for i := range 3 {
			v, err := s.CurrentVersion(key)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.ApplyCommitSet(ctx, memento.CommitSet{Writes: []memento.Memento{mem(key.Table, key.ID, v, intFields(int64(i)))}})
			if err != nil {
				t.Fatal(err)
			}
			if prev, dup := issued[res.Seq]; dup {
				t.Fatalf("run %d issued v%d, which run %d issued", run, res.Seq, prev)
			}
			issued[res.Seq] = run
			if res.Seq>>incarnationShift != uint64(run) {
				t.Errorf("run %d issued v%#x, outside incarnation %d", run, res.Seq, run)
			}
		}
		s.Close() // a crash: nothing is dumped
	}
}

// FuzzRestore feeds the snapshot loader hostile bytes: it must never
// panic, and a rejected snapshot must leave the store readable with the
// state it had.
func FuzzRestore(f *testing.F) {
	src := New()
	defer src.Close()
	if err := src.CreateIndex("h", "acct"); err != nil {
		f.Fatal(err)
	}
	src.Seed(acctRow("1", "a", 10), acctRow("2", "b", 20), mem("other", "x", 0, intFields(5)))
	var real bytes.Buffer
	if err := src.Dump(&real); err != nil {
		f.Fatal(err)
	}
	restored := New()
	defer restored.Close()
	if err := restored.Restore(bytes.NewReader(real.Bytes())); err != nil {
		f.Fatal(err)
	}
	var later bytes.Buffer // at incarnation 1
	if err := restored.Dump(&later); err != nil {
		f.Fatal(err)
	}
	for _, snap := range [][]byte{real.Bytes(), later.Bytes()} {
		f.Add(snap)
		f.Add(snap[:len(snap)/2])
		f.Add(snap[:len(snap)-1])
	}
	f.Add([]byte("not a snapshot"))
	// A row as an update's changed cells, which no snapshot holds.
	delta := acctRow("1", "a", 10)
	delta.Version, delta.Delta = 1, true
	f.Add(encodeSnapshot(0, 1, snapTable{name: "h", rows: []memento.Memento{delta}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New()
		defer s.Close()
		kept := memento.Key{Table: "kept", ID: "k"}
		s.Seed(mem(kept.Table, kept.ID, 0, intFields(7)))
		if err := s.Restore(bytes.NewReader(data)); err != nil {
			if v, verr := s.CurrentVersion(kept); verr != nil || v != 1 {
				t.Fatalf("failed restore (%v) disturbed the store: v=%d err=%v", err, v, verr)
			}
			return
		}
		// Accepted: the restored state must dump again.
		if err := s.Dump(io.Discard); err != nil {
			t.Fatalf("restored store does not dump: %v", err)
		}
	})
}
