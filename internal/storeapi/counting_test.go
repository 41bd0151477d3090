package storeapi

import (
	"context"
	"errors"
	"testing"

	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
)

// TestCountingConnCountsEveryStatement drives every Conn and Txn method
// once and verifies each counted exactly one statement.
func TestCountingConnCountsEveryStatement(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	seedOne(store, "t", "r", 1)
	seedOne(store, "t", "u", 2)
	seedOne(store, "t", "d", 3)
	conn := NewCountingConn(Local(store))
	defer conn.Close()
	ctx := context.Background()

	steps := []struct {
		name string
		op   func(txn Txn) error
	}{
		{"Get", func(txn Txn) error { _, err := txn.Get(ctx, "t", "r"); return err }},
		{"GetForUpdate", func(txn Txn) error { _, err := txn.GetForUpdate(ctx, "t", "u"); return err }},
		{"Put", func(txn Txn) error {
			return txn.Put(ctx, memento.Memento{Key: memento.Key{Table: "t", ID: "u"},
				Fields: memento.Fields{"v": memento.Int(9)}})
		}},
		{"Insert", func(txn Txn) error {
			return txn.Insert(ctx, memento.Memento{Key: memento.Key{Table: "t", ID: "new"},
				Fields: memento.Fields{"v": memento.Int(4)}})
		}},
		{"Delete", func(txn Txn) error { return txn.Delete(ctx, "t", "d") }},
		{"Query", func(txn Txn) error { _, err := txn.Query(ctx, memento.Query{Table: "t"}); return err }},
		{"CheckVersion", func(txn Txn) error {
			return txn.CheckVersion(ctx, memento.Key{Table: "t", ID: "r"}, 1)
		}},
		{"CheckedPut", func(txn Txn) error {
			return txn.CheckedPut(ctx, memento.Memento{Key: memento.Key{Table: "t", ID: "r"},
				Version: 1, Fields: memento.Fields{"v": memento.Int(8)}})
		}},
	}

	txn, err := conn.Begin(ctx) // +1
	if err != nil {
		t.Fatal(err)
	}
	if txn.ID() == 0 {
		t.Error("counting txn hides the underlying id")
	}
	want := uint64(1)
	for _, step := range steps {
		if err := step.op(txn); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		want++
		if got := conn.Ops(); got != want {
			t.Fatalf("after %s: ops = %d, want %d", step.name, got, want)
		}
	}
	if err := txn.Commit(ctx); err != nil { // +1
		t.Fatal(err)
	}
	want++
	if got := conn.Ops(); got != want {
		t.Fatalf("after commit: ops = %d, want %d", conn.Ops(), want)
	}

	// CheckedDelete + Abort on a second transaction.
	txn2, err := conn.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	v, err := store.CurrentVersion(memento.Key{Table: "t", ID: "new"})
	if err != nil {
		t.Fatal(err)
	}
	if err := txn2.CheckedDelete(ctx, memento.Key{Table: "t", ID: "new"}, v); err != nil {
		t.Fatal(err)
	}
	if err := txn2.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	want += 3 // begin + checkedDelete + abort
	if got := conn.Ops(); got != want {
		t.Fatalf("after abort: ops = %d, want %d", conn.Ops(), want)
	}

	// Auto ops and ApplyCommitSet count one each.
	if _, err := conn.AutoGet(ctx, "t", "r"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.AutoQuery(ctx, memento.Query{Table: "t"}); err != nil {
		t.Fatal(err)
	}
	v, err = store.CurrentVersion(memento.Key{Table: "t", ID: "r"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ApplyCommitSet(ctx, memento.CommitSet{
		Reads: []memento.ReadProof{{Key: memento.Key{Table: "t", ID: "r"}, Version: v}},
	}); err != nil {
		t.Fatal(err)
	}
	want += 3
	if got := conn.Ops(); got != want {
		t.Fatalf("after auto ops: ops = %d, want %d", conn.Ops(), want)
	}

	// Subscribe is a push stream, never a counted statement.
	ch, cancel, err := conn.Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	<-ch
	if got := conn.Ops(); got != want {
		t.Errorf("subscribe counted as a statement: %d", got)
	}
}

// TestLocalTxnErrorPaths covers the local adapter's pass-through of
// store errors.
func TestLocalTxnErrorPaths(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	seedOne(store, "t", "1", 1)
	conn := Local(store)
	ctx := context.Background()

	txn, err := conn.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Abort(ctx)
	if _, err := txn.GetForUpdate(ctx, "t", "missing"); !errors.Is(err, sqlstore.ErrNotFound) {
		t.Errorf("GetForUpdate missing: %v", err)
	}
	if err := txn.Insert(ctx, memento.Memento{Key: memento.Key{Table: "t", ID: "1"}}); !errors.Is(err, sqlstore.ErrExists) {
		t.Errorf("Insert existing: %v", err)
	}
	if err := txn.Delete(ctx, "t", "missing"); !errors.Is(err, sqlstore.ErrNotFound) {
		t.Errorf("Delete missing: %v", err)
	}
	if err := txn.CheckedPut(ctx, memento.Memento{
		Key: memento.Key{Table: "t", ID: "1"}, Version: 99,
	}); !errors.Is(err, sqlstore.ErrConflict) {
		t.Errorf("stale CheckedPut: %v", err)
	}
	if err := txn.CheckedDelete(ctx, memento.Key{Table: "t", ID: "1"}, 99); !errors.Is(err, sqlstore.ErrConflict) {
		t.Errorf("stale CheckedDelete: %v", err)
	}
}

// TestLocalAutoOpsReleaseOnError: a failing autocommit read leaves no
// transaction or lock behind, as it opens none.
func TestLocalAutoOpsReleaseOnError(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	conn := Local(store)
	ctx := context.Background()

	if _, err := conn.AutoGet(ctx, "t", "missing"); !errors.Is(err, sqlstore.ErrNotFound) {
		t.Fatalf("got %v", err)
	}
	if st := store.Stats(); st.Begins != 0 {
		t.Errorf("a failing autocommit read opened %d transactions", st.Begins)
	}
}
