package sqlstore

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"edgeejb/internal/memento"
)

func acctRow(id, acct string, qty int64) memento.Memento {
	return memento.Memento{
		Key: memento.Key{Table: "h", ID: id},
		Fields: memento.Fields{
			"acct": memento.String(acct),
			"qty":  memento.Int(qty),
		},
	}
}

func acctQuery(acct string) memento.Query {
	return memento.Query{
		Table: "h",
		Where: []memento.Predicate{memento.Where("acct", memento.String(acct))},
	}
}

func queryAll(t *testing.T, s *Store, q memento.Query) []memento.Memento {
	t.Helper()
	tx := mustBegin(t, s)
	defer tx.Abort()
	out, err := tx.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestIndexProbeMatchesScan(t *testing.T) {
	s := New()
	defer s.Close()
	for i := 0; i < 30; i++ {
		s.Seed(acctRow(fmt.Sprintf("%02d", i), fmt.Sprintf("u%d", i%5), int64(i)))
	}
	scan := queryAll(t, s, acctQuery("u3"))

	if err := s.CreateIndex("h", "acct"); err != nil {
		t.Fatal(err)
	}
	probed := queryAll(t, s, acctQuery("u3"))
	if !reflect.DeepEqual(scan, probed) {
		t.Fatalf("indexed result differs:\nscan:  %v\nprobe: %v", scan, probed)
	}
	st := s.Stats()
	if st.IndexProbes == 0 {
		t.Error("query after CreateIndex did not probe the index")
	}
}

func TestIndexMaintainedAcrossCommits(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	if err := s.CreateIndex("h", "acct"); err != nil {
		t.Fatal(err)
	}
	s.Seed(acctRow("1", "a", 1), acctRow("2", "a", 2), acctRow("3", "b", 3))

	tx := mustBegin(t, s)
	// Move row 1 from account a to b; delete row 2; insert row 4 in a.
	if err := tx.Put(ctx, acctRow("1", "b", 1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(ctx, "h", "2"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(ctx, acctRow("4", "a", 4)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	gotA := queryAll(t, s, acctQuery("a"))
	if len(gotA) != 1 || gotA[0].Key.ID != "4" {
		t.Fatalf("account a after commit = %v, want only h/4", gotA)
	}
	gotB := queryAll(t, s, acctQuery("b"))
	if len(gotB) != 2 || gotB[0].Key.ID != "1" || gotB[1].Key.ID != "3" {
		t.Fatalf("account b after commit = %v, want h/1 and h/3", gotB)
	}
}

func TestIndexInvisibleToUncommittedWrites(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	if err := s.CreateIndex("h", "acct"); err != nil {
		t.Fatal(err)
	}
	s.Seed(acctRow("1", "a", 1))

	tx := mustBegin(t, s)
	defer tx.Abort()
	if err := tx.Put(ctx, acctRow("1", "b", 1)); err != nil {
		t.Fatal(err)
	}
	// The writer's own query sees the buffered move (via overlay)...
	got, err := tx.Query(ctx, acctQuery("b"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("own buffered write invisible to indexed query: %v", got)
	}
	got, err = tx.Query(ctx, acctQuery("a"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("moved-away row still returned: %v", got)
	}
}

func TestCreateIndexValidation(t *testing.T) {
	s := New()
	defer s.Close()
	if err := s.CreateIndex("", "f"); err == nil {
		t.Error("empty table accepted")
	}
	if err := s.CreateIndex("t", ""); err == nil {
		t.Error("empty field accepted")
	}
	if err := s.CreateIndex("t", "f"); err != nil {
		t.Errorf("index on empty table: %v", err)
	}
	if err := s.CreateIndex("t", "f"); err != nil {
		t.Errorf("duplicate CreateIndex should be a no-op: %v", err)
	}
	got := s.Indexes("t")
	if len(got) != 1 || got[0] != "f" {
		t.Errorf("Indexes = %v", got)
	}
	s.Close()
	if err := s.CreateIndex("t", "g"); err != ErrClosed {
		t.Errorf("CreateIndex on closed store: %v", err)
	}
}

func TestIndexDistinguishesValueKinds(t *testing.T) {
	s := New()
	defer s.Close()
	if err := s.CreateIndex("t", "v"); err != nil {
		t.Fatal(err)
	}
	s.Seed(
		memento.Memento{Key: memento.Key{Table: "t", ID: "int"}, Fields: memento.Fields{"v": memento.Int(1)}},
		memento.Memento{Key: memento.Key{Table: "t", ID: "float"}, Fields: memento.Fields{"v": memento.Float(1)}},
		memento.Memento{Key: memento.Key{Table: "t", ID: "str"}, Fields: memento.Fields{"v": memento.String("1")}},
	)
	got := queryAll(t, s, memento.Query{
		Table: "t",
		Where: []memento.Predicate{memento.Where("v", memento.Int(1))},
	})
	if len(got) != 1 || got[0].Key.ID != "int" {
		t.Fatalf("kind collision: %v", got)
	}
}

// equalityValues are the values the equivalence property draws for the
// indexed field: every Kind, both float zeros, a NaN, one payload
// spelled in three kinds, and a float carrying payloads its kind does
// not select, which is stored and probed as Float(1).
var equalityValues = []memento.Value{
	memento.String("u0"), memento.String("u1"), memento.String("1"),
	memento.Int(1), memento.Int(2),
	memento.Float(1), memento.Float(0), memento.Float(math.Copysign(0, -1)), memento.Float(math.NaN()),
	{Kind: memento.KindFloat, F: 1, Str: "x", Int: 4},
	memento.Bool(true), memento.Bool(false),
}

// Property: for random data, random committed churn and an equality
// probe of every drawn value, the indexed store and an unindexed store
// return identical results. An index probe and a scan share one
// equality, so Float(0) and Float(-0) select each other's rows and a
// NaN selects none in both.
func TestIndexEquivalenceProperty(t *testing.T) {
	row := func(id string, v memento.Value) memento.Memento {
		return memento.Memento{
			Key:    memento.Key{Table: "h", ID: id},
			Fields: memento.Fields{"acct": v, "qty": memento.Int(1)},
		}
	}
	draw := func(rng *rand.Rand) memento.Value { return equalityValues[rng.Intn(len(equalityValues))] }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		plain := New()
		defer plain.Close()
		indexed := New()
		defer indexed.Close()
		if err := indexed.CreateIndex("h", "acct"); err != nil {
			return false
		}
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			r := row(fmt.Sprintf("%03d", i), draw(rng))
			plain.Seed(r)
			indexed.Seed(r)
		}
		ctx := context.Background()
		// Churn applied identically to both stores: move a row to a new
		// value, delete one, or insert one, each in its own commit.
		for i := 0; i < 10; i++ {
			id := fmt.Sprintf("%03d", rng.Intn(n+5))
			v := draw(rng)
			kind := rng.Intn(3)
			for _, s := range []*Store{plain, indexed} {
				tx, err := s.Begin(ctx)
				if err != nil {
					return false
				}
				switch kind {
				case 0:
					err = tx.Put(ctx, row(id, v))
				case 1:
					err = tx.Delete(ctx, "h", id)
				default:
					err = tx.Insert(ctx, row(id, v))
				}
				if err == nil {
					_ = tx.Commit()
				}
				tx.Abort()
			}
		}
		// The index holds exactly the rows a probe can select: every
		// committed row but those whose value is NaN.
		indexed.mu.RLock()
		held, probeable := 0, 0
		for _, ids := range indexed.tables["h"].indexes["acct"].byValue {
			held += len(ids)
		}
		h := indexed.tables["h"]
		col := h.cols.Column("acct")
		for _, r := range h.rows {
			if v, _ := r.cells.Value(col); v.Equal(v) {
				probeable++
			}
		}
		indexed.mu.RUnlock()
		if held != probeable {
			t.Logf("index holds %d row IDs, %d rows are probeable", held, probeable)
			return false
		}
		for _, v := range equalityValues {
			q := memento.Query{Table: "h", Where: []memento.Predicate{memento.Where("acct", v)}}
			txP, _ := plain.Begin(ctx)
			wantRows, err := txP.Query(ctx, q)
			txP.Abort()
			if err != nil {
				return false
			}
			txI, _ := indexed.Begin(ctx)
			gotRows, err := txI.Query(ctx, q)
			txI.Abort()
			if err != nil {
				return false
			}
			if !reflect.DeepEqual(wantRows, gotRows) {
				t.Logf("acct = %s %s: scan %d rows, index %d rows", v.Kind, v.GoString(), len(wantRows), len(gotRows))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
