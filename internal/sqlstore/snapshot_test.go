package sqlstore

import (
	"bytes"
	"context"
	"encoding/gob"
	"io"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"edgeejb/internal/memento"
)

func TestSnapshotRoundTrip(t *testing.T) {
	src := New()
	defer src.Close()
	if err := src.CreateIndex("h", "acct"); err != nil {
		t.Fatal(err)
	}
	src.Seed(
		acctRow("1", "a", 10),
		acctRow("2", "b", 20),
		mem("other", "x", 0, intFields(5)),
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
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	s := New()
	defer s.Close()
	if err := s.Restore(strings.NewReader("not a snapshot")); err == nil {
		t.Fatal("garbage accepted")
	}
	var buf bytes.Buffer
	other := New()
	defer other.Close()
	if err := other.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the magic by re-encoding a wrong struct is cumbersome;
	// instead truncate the stream.
	trunc := buf.Bytes()[:buf.Len()/2]
	if err := s.Restore(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

func TestSnapshotFileAtomicInstall(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.gob")

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
	if err := s2.RestoreFile(filepath.Join(dir, "missing.gob")); err == nil {
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
// contradict themselves is refused, and the refusal leaves the store's
// previous committed state in place.
func TestRestoreRejectsInconsistentSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tables []snapshotTable
	}{
		{"row filed under another table", []snapshotTable{
			{Name: "t", Rows: []memento.Memento{mem("other", "1", 3, intFields(1))}},
		}},
		{"table named twice", []snapshotTable{
			{Name: "t", Rows: []memento.Memento{mem("t", "1", 3, intFields(1))}},
			{Name: "t", Rows: []memento.Memento{mem("t", "2", 3, intFields(2))}},
		}},
		{"row held twice", []snapshotTable{
			{Name: "t", Rows: []memento.Memento{mem("t", "1", 3, intFields(1)), mem("t", "1", 4, intFields(2))}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(snapshot{Magic: snapshotMagic, Tables: tc.tables}); err != nil {
				t.Fatal(err)
			}
			s := New()
			defer s.Close()
			s.Seed(mem("kept", "k", 0, intFields(7)))
			if err := s.Restore(&buf); err == nil {
				t.Fatal("inconsistent snapshot accepted")
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
	f.Add(real.Bytes())
	f.Add(real.Bytes()[:real.Len()/2])
	f.Add([]byte("not a snapshot"))
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
