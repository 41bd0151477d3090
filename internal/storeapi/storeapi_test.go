package storeapi

import (
	"context"
	"errors"
	"testing"

	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
)

func seedOne(s *sqlstore.Store, table, id string, v int64) {
	s.Seed(memento.Memento{
		Key:    memento.Key{Table: table, ID: id},
		Fields: memento.Fields{"v": memento.Int(v)},
	})
}

func TestLocalTxnLifecycle(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	seedOne(store, "t", "1", 10)
	conn := Local(store)
	defer conn.Close()
	ctx := context.Background()

	txn, err := conn.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if txn.ID() == 0 {
		t.Error("local txn should expose the store transaction id")
	}
	res, err := txn.Get(ctx, "t", "1")
	if err != nil {
		t.Fatal(err)
	}
	m := res.Mem
	m.Fields["v"] = memento.Int(11)
	if err := txn.Put(ctx, m); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if v, _ := store.CurrentVersion(memento.Key{Table: "t", ID: "1"}); v != 2 {
		t.Errorf("version = %d, want 2", v)
	}
}

func TestLocalAutoGet(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	seedOne(store, "t", "1", 10)
	conn := Local(store)
	ctx := context.Background()

	res, err := conn.AutoGet(ctx, "t", "1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.Fields["v"].Int != 10 {
		t.Errorf("v = %d, want 10", res.Mem.Fields["v"].Int)
	}
	if _, err := conn.AutoGet(ctx, "t", "missing"); !errors.Is(err, sqlstore.ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
	// An autocommit read is one read of committed rows: it opens no
	// store transaction, so it can neither leak nor wait for a lock.
	if st := store.Stats(); st.Begins != 0 || st.Gets != 2 {
		t.Errorf("two autocommit reads: %d transactions, %d gets; want 0, 2", st.Begins, st.Gets)
	}
}

func TestLocalAutoQuery(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	seedOne(store, "t", "1", 1)
	seedOne(store, "t", "2", 2)
	conn := Local(store)
	ctx := context.Background()

	qres, err := conn.AutoQuery(ctx, memento.Query{Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if len(qres.Mems) != 2 {
		t.Fatalf("got %d rows, want 2", len(qres.Mems))
	}
	if st := store.Stats(); st.Begins != 0 || st.Queries != 1 {
		t.Errorf("an autocommit query: %d transactions, %d queries; want 0, 1", st.Begins, st.Queries)
	}
}

func TestLocalApplyCommitSetAndSubscribe(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	seedOne(store, "t", "1", 1)
	conn := Local(store)
	ctx := context.Background()

	ch, cancel, err := conn.Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	res, err := conn.ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{{
			Key:     memento.Key{Table: "t", ID: "1"},
			Version: 1,
			Fields:  memento.Fields{"v": memento.Int(2)},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := <-ch
	if n.Seq != res.Seq || res.Seq == 0 {
		t.Errorf("notice Seq = %d, want the commit's %d", n.Seq, res.Seq)
	}
}

// plainTxn hides every interface of the Txn it wraps but Txn itself,
// as a tracing decorator does.
type plainTxn struct{ Txn }

// TestExecStmtCommitSeqThroughDecorator: a commit run through a Txn
// that is not an Execer still reports the number the store gave it,
// the version of the row it wrote.
func TestExecStmtCommitSeqThroughDecorator(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	seedOne(store, "t", "1", 10)
	ctx := context.Background()
	txn, err := Local(store).Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	txn = plainTxn{txn}
	if r := ExecStmt(ctx, txn, Stmt{Kind: StmtPut, Mem: memento.Memento{Key: memento.Key{Table: "t", ID: "1"}, Fields: memento.Fields{"v": memento.Int(11)}}}); r.Err != nil {
		t.Fatal(r.Err)
	}
	r := ExecStmt(ctx, txn, Stmt{Kind: StmtCommit})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if v, _ := store.CurrentVersion(memento.Key{Table: "t", ID: "1"}); r.Seq == 0 || r.Seq != v {
		t.Errorf("commit Seq = %d, want the written row's version %d", r.Seq, v)
	}
}
