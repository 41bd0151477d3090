package sqlstore

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"edgeejb/internal/memento"
)

func mem(table, id string, version uint64, fields memento.Fields) memento.Memento {
	return memento.Memento{
		Key:     memento.Key{Table: table, ID: id},
		Version: version,
		Fields:  fields,
	}
}

func intFields(v int64) memento.Fields { return memento.Fields{"v": memento.Int(v)} }

func mustBegin(t *testing.T, s *Store) *Tx {
	t.Helper()
	tx, err := s.Begin(context.Background())
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	return tx
}

func TestSeedAndGet(t *testing.T) {
	s := New()
	defer s.Close()
	s.Seed(mem("t", "1", 0, intFields(10)))

	tx := mustBegin(t, s)
	defer tx.Abort()
	m, err := tx.Get(context.Background(), "t", "1")
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 1 {
		t.Errorf("seeded version = %d, want 1", m.Version)
	}
	if m.Fields["v"].Int != 10 {
		t.Errorf("field v = %d, want 10", m.Fields["v"].Int)
	}
}

func TestGetNotFound(t *testing.T) {
	s := New()
	defer s.Close()
	tx := mustBegin(t, s)
	defer tx.Abort()
	if _, err := tx.Get(context.Background(), "t", "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expected ErrNotFound, got %v", err)
	}
}

func TestPutCommitBumpsVersion(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	s.Seed(mem("t", "1", 0, intFields(1)))

	for want := uint64(2); want <= 4; want++ {
		tx := mustBegin(t, s)
		if err := tx.Put(ctx, mem("t", "1", 0, intFields(int64(want)))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		v, err := s.CurrentVersion(memento.Key{Table: "t", ID: "1"})
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Fatalf("version = %d, want %d", v, want)
		}
	}
}

func TestWritesInvisibleUntilCommit(t *testing.T) {
	s := New(WithLockTimeout(50 * time.Millisecond))
	defer s.Close()
	ctx := context.Background()
	s.Seed(mem("t", "1", 0, intFields(1)))

	writer := mustBegin(t, s)
	if err := writer.Put(ctx, mem("t", "1", 0, intFields(2))); err != nil {
		t.Fatal(err)
	}
	// Writer sees its own buffered write.
	m, err := writer.Get(ctx, "t", "1")
	if err != nil {
		t.Fatal(err)
	}
	if m.Fields["v"].Int != 2 {
		t.Errorf("writer sees v=%d, want its own write 2", m.Fields["v"].Int)
	}
	// A concurrent reader blocks on the X lock (no dirty reads) and
	// times out.
	reader := mustBegin(t, s)
	defer reader.Abort()
	if _, err := reader.Get(ctx, "t", "1"); !errors.Is(err, ErrConflict) {
		t.Fatalf("expected lock-timeout conflict, got %v", err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	reader2 := mustBegin(t, s)
	defer reader2.Abort()
	m, err = reader2.Get(ctx, "t", "1")
	if err != nil {
		t.Fatal(err)
	}
	if m.Fields["v"].Int != 2 {
		t.Errorf("after commit v=%d, want 2", m.Fields["v"].Int)
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	s.Seed(mem("t", "1", 0, intFields(1)))

	tx := mustBegin(t, s)
	if err := tx.Put(ctx, mem("t", "1", 0, intFields(99))); err != nil {
		t.Fatal(err)
	}
	tx.Abort()

	tx2 := mustBegin(t, s)
	defer tx2.Abort()
	m, err := tx2.Get(ctx, "t", "1")
	if err != nil {
		t.Fatal(err)
	}
	if m.Fields["v"].Int != 1 {
		t.Errorf("after abort v=%d, want 1", m.Fields["v"].Int)
	}
}

func TestInsertSemantics(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	s.Seed(mem("t", "exists", 0, intFields(1)))

	tx := mustBegin(t, s)
	defer tx.Abort()
	if err := tx.Insert(ctx, mem("t", "exists", 0, intFields(2))); !errors.Is(err, ErrExists) {
		t.Fatalf("insert over committed row: got %v, want ErrExists", err)
	}
	if err := tx.Insert(ctx, mem("t", "new", 0, intFields(3))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(ctx, mem("t", "new", 0, intFields(4))); !errors.Is(err, ErrExists) {
		t.Fatalf("insert over buffered insert: got %v, want ErrExists", err)
	}
	// Delete-then-insert in one transaction is allowed.
	if err := tx.Delete(ctx, "t", "exists"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(ctx, mem("t", "exists", 0, intFields(5))); err != nil {
		t.Fatalf("insert after delete: %v", err)
	}
}

func TestDeleteSemantics(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	s.Seed(mem("t", "1", 0, intFields(1)))

	tx := mustBegin(t, s)
	if err := tx.Delete(ctx, "t", "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing: got %v, want ErrNotFound", err)
	}
	if err := tx.Delete(ctx, "t", "1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Get(ctx, "t", "1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after buffered delete: got %v, want ErrNotFound", err)
	}
	if err := tx.Delete(ctx, "t", "1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: got %v, want ErrNotFound", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.RowCount("t") != 0 {
		t.Error("row survived committed delete")
	}
}

func TestQueryWithBufferedWrites(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	s.Seed(
		mem("h", "1", 0, memento.Fields{"acct": memento.String("u1")}),
		mem("h", "2", 0, memento.Fields{"acct": memento.String("u1")}),
		mem("h", "3", 0, memento.Fields{"acct": memento.String("u2")}),
		mem("h", "5", 0, memento.Fields{"acct": memento.String("u1")}),
	)
	q := memento.Query{
		Table: "h",
		Where: []memento.Predicate{memento.Where("acct", memento.String("u1"))},
	}

	tx := mustBegin(t, s)
	defer tx.Abort()
	// Delete one match, update another out of the result set, insert two
	// fresh matches, one keyed before the untouched match h/5.
	if err := tx.Delete(ctx, "h", "1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(ctx, mem("h", "2", 0, memento.Fields{"acct": memento.String("u9")})); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"4", "0"} {
		if err := tx.Insert(ctx, mem("h", id, 0, memento.Fields{"acct": memento.String("u1")})); err != nil {
			t.Fatal(err)
		}
	}
	got, err := tx.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, m := range got {
		ids = append(ids, m.Key.ID)
	}
	if want := []string{"0", "4", "5"}; !slices.Equal(ids, want) {
		t.Fatalf("query = %v, want %v in key order", ids, want)
	}
}

func TestQueryBlocksConcurrentWriter(t *testing.T) {
	s := New(WithLockTimeout(50 * time.Millisecond))
	defer s.Close()
	ctx := context.Background()
	s.Seed(mem("t", "1", 0, intFields(1)))

	q := mustBegin(t, s)
	defer q.Abort()
	if _, err := q.Query(ctx, memento.Query{Table: "t"}); err != nil {
		t.Fatal(err)
	}
	// A writer needs table IX, incompatible with the query's table S:
	// phantom protection for pessimistic transactions.
	w := mustBegin(t, s)
	defer w.Abort()
	if err := w.Insert(ctx, mem("t", "2", 0, intFields(2))); !errors.Is(err, ErrConflict) {
		t.Fatalf("expected writer to block on table lock, got %v", err)
	}
}

func TestTxDoneSemantics(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	tx := mustBegin(t, s)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double commit: got %v", err)
	}
	if _, err := tx.Get(ctx, "t", "1"); !errors.Is(err, ErrTxDone) {
		t.Fatalf("get after commit: got %v", err)
	}
	tx.Abort() // must be a no-op, not a panic
}

func TestLocksReleasedOnCommitAndAbort(t *testing.T) {
	s := New(WithLockTimeout(50 * time.Millisecond))
	defer s.Close()
	ctx := context.Background()
	s.Seed(mem("t", "1", 0, intFields(1)))

	tx1 := mustBegin(t, s)
	if _, err := tx1.GetForUpdate(ctx, "t", "1"); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := mustBegin(t, s)
	if _, err := tx2.GetForUpdate(ctx, "t", "1"); err != nil {
		t.Fatalf("lock leaked past commit: %v", err)
	}
	tx2.Abort()
	tx3 := mustBegin(t, s)
	defer tx3.Abort()
	if _, err := tx3.GetForUpdate(ctx, "t", "1"); err != nil {
		t.Fatalf("lock leaked past abort: %v", err)
	}
}

func TestCheckVersion(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	s.Seed(mem("t", "1", 0, intFields(1))) // version 1

	tx := mustBegin(t, s)
	defer tx.Abort()
	key := memento.Key{Table: "t", ID: "1"}
	if err := tx.CheckVersion(ctx, key, 1); err != nil {
		t.Errorf("matching version: %v", err)
	}
	if err := tx.CheckVersion(ctx, key, 2); !errors.Is(err, ErrConflict) {
		t.Errorf("stale version: got %v, want ErrConflict", err)
	}
	if err := tx.CheckVersion(ctx, key, 0); !errors.Is(err, ErrConflict) {
		t.Errorf("absence proof over existing row: got %v, want ErrConflict", err)
	}
	missing := memento.Key{Table: "t", ID: "nope"}
	if err := tx.CheckVersion(ctx, missing, 0); err != nil {
		t.Errorf("absence proof over missing row: %v", err)
	}
	if err := tx.CheckVersion(ctx, missing, 1); !errors.Is(err, ErrConflict) {
		t.Errorf("existence proof over missing row: got %v, want ErrConflict", err)
	}
}

func TestCheckedPutAndDelete(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	s.Seed(mem("t", "1", 0, intFields(1))) // version 1
	key := memento.Key{Table: "t", ID: "1"}

	// Stale write rejected.
	tx := mustBegin(t, s)
	if err := tx.CheckedPut(ctx, mem("t", "1", 99, intFields(2))); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale CheckedPut: got %v", err)
	}
	tx.Abort()

	// Current write accepted; version bumps.
	tx = mustBegin(t, s)
	if err := tx.CheckedPut(ctx, mem("t", "1", 1, intFields(2))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.CurrentVersion(key); v != 2 {
		t.Fatalf("version = %d, want 2", v)
	}

	// Checked insert (version 0) over existing row rejected.
	tx = mustBegin(t, s)
	if err := tx.CheckedPut(ctx, mem("t", "1", 0, intFields(3))); !errors.Is(err, ErrConflict) {
		t.Fatalf("checked insert over row: got %v", err)
	}
	tx.Abort()

	// Checked delete with stale version rejected; with current version
	// applied.
	tx = mustBegin(t, s)
	if err := tx.CheckedDelete(ctx, key, 1); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale CheckedDelete: got %v", err)
	}
	tx.Abort()
	tx = mustBegin(t, s)
	if err := tx.CheckedDelete(ctx, key, 2); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.RowCount("t") != 0 {
		t.Error("checked delete did not remove row")
	}
}

func TestClosedStore(t *testing.T) {
	s := New()
	s.Close()
	s.Close() // idempotent
	if _, err := s.Begin(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("begin on closed store: got %v", err)
	}
}

func TestStatsCounting(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	s.Seed(mem("t", "1", 0, intFields(1)))

	tx := mustBegin(t, s)
	_, _ = tx.Get(ctx, "t", "1")
	_ = tx.Put(ctx, mem("t", "1", 0, intFields(2)))
	_, _ = tx.Query(ctx, memento.Query{Table: "t"})
	_ = tx.Commit()

	st := s.Stats()
	if st.Begins != 1 || st.Commits != 1 || st.Gets != 1 || st.Puts != 1 || st.Queries != 1 {
		t.Errorf("unexpected stats: %+v", st)
	}
	if st.RowsLive != 1 || st.TablesLive != 1 {
		t.Errorf("unexpected gauges: %+v", st)
	}
}

// TestCloseWakesLockWaiters: a transaction waiting on another's row lock
// fails with ErrClosed as soon as the store closes, not at the end of
// its lock-wait timeout.
func TestCloseWakesLockWaiters(t *testing.T) {
	const timeout = 10 * time.Second
	s := New(WithLockTimeout(timeout))
	ctx := context.Background()
	seed, _ := s.Begin(ctx)
	if err := seed.Insert(ctx, mem("t", "a", 0, intFields(1))); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	holder, _ := s.Begin(ctx)
	if _, err := holder.GetForUpdate(ctx, "t", "a"); err != nil {
		t.Fatal(err)
	}
	waiter, _ := s.Begin(ctx)
	got := make(chan error, 1)
	go func() {
		_, err := waiter.Get(ctx, "t", "a")
		got <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter queue on the row lock
	closed := time.Now()
	s.Close()
	select {
	case err := <-got:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("waiter got %v, want ErrClosed", err)
		}
		if d := time.Since(closed); d > 100*time.Millisecond {
			t.Fatalf("waiter woke %v after Close, want within 100ms", d)
		}
	case <-time.After(timeout):
		t.Fatal("waiter still blocked after Close")
	}
}

// TestRemovedRowsLeaveNothingBehind: the store keeps nothing for a row
// once it is removed, so creating and removing rows under ever new keys
// does not grow its heap. 20,000 rows cross the store, 100 at a time,
// each created by one commit set and removed by the next.
func TestRemovedRowsLeaveNothingBehind(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	const rows, batch = 20_000, 100
	round := func(base int) {
		var create memento.CommitSet
		for i := range batch {
			create.Creates = append(create.Creates, mem("t", fmt.Sprintf("r%d", base+i), 0, intFields(int64(i))))
		}
		res, err := s.ApplyCommitSet(ctx, create)
		if err != nil {
			t.Fatal(err)
		}
		var remove memento.CommitSet
		for _, c := range create.Creates {
			remove.Removes = append(remove.Removes, memento.ReadProof{Key: c.Key, Version: res.Seq})
		}
		if _, err := s.ApplyCommitSet(ctx, remove); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	round(-batch) // the table and its row map exist before the baseline
	before := heap()
	for base := 0; base < rows; base += batch {
		round(base)
	}
	after := heap()
	if n := s.RowCount("t"); n != 0 {
		t.Fatalf("%d rows left after removing every one", n)
	}
	grew := int64(after) - int64(before)
	t.Logf("retained heap grew %d B", grew)
	if grew >= 512<<10 {
		t.Errorf("retained heap grew %d B over %d created and removed rows, want < 512 KiB", grew, rows)
	}
}

// TestChangedCellsMergeOntoTheTransactionsOwnWrite: a checked put of
// changed cells after the transaction's own write to the key lays them
// over that write, not over the committed row, and the store refuses
// changed cells wherever no version check pins the row they change: on
// a put, an insert and a checked put at version 0.
func TestChangedCellsMergeOntoTheTransactionsOwnWrite(t *testing.T) {
	store := New()
	t.Cleanup(store.Close)
	ctx := context.Background()
	k, bKey := memento.Key{Table: "t", ID: "a"}, memento.Key{Table: "t", ID: "b"}
	store.Seed(memento.Memento{Key: k, Fields: memento.Fields{"n": memento.Int(1), "s": memento.String("x")}})
	tx, err := store.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.CheckedPut(ctx, memento.Memento{Key: k, Version: 1, Fields: memento.Fields{"n": memento.Int(2), "s": memento.String("y")}}); err != nil {
		t.Fatal(err)
	}
	delta := memento.Memento{Key: k, Version: 1, Fields: memento.Fields{"n": memento.Int(3)}, Delta: true}
	if err := tx.CheckedPut(ctx, delta); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]func() error{
		"put":                      func() error { return tx.Put(ctx, delta) },
		"insert":                   func() error { return tx.Insert(ctx, memento.Memento{Key: bKey, Fields: delta.Fields, Delta: true}) },
		"checked put at version 0": func() error { return tx.CheckedPut(ctx, memento.Memento{Key: bKey, Fields: delta.Fields, Delta: true}) },
	} {
		if err := bad(); err == nil {
			t.Errorf("changed cells accepted on a %s", name)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err := store.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if want := (memento.Fields{"n": memento.Int(3), "s": memento.String("y")}); !got.Fields.Equal(want) {
		t.Errorf("row = %v, want %v", got.Fields, want)
	}
	if _, err := store.Get(bKey); err == nil {
		t.Error("a refused write to b left a row")
	}
}
