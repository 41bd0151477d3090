package component

import (
	"context"
	"errors"
	"testing"
	"time"

	"edgeejb/internal/dbwire"
	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// TestChaosPanicAbortsTransaction: a panic inside application code must
// abort the transaction. The JDBC manager opens a dbwire transaction per
// Execute; one that let the panic unwind without aborting would leave
// every panicking transaction open at the database, holding its row
// locks.
func TestChaosPanicAbortsTransaction(t *testing.T) {
	store, client, c := jdbcOverWire(t, 2*time.Second)
	ctx := context.Background()

	panicOnce := func() (recovered any) {
		defer func() { recovered = recover() }()
		_ = c.Execute(ctx, func(tx *Tx) error {
			it := &item{ID: "a"}
			if err := tx.Find(it); err != nil {
				return err
			}
			panic("application bug")
		})
		return nil
	}

	const rounds = 16
	for i := 0; i < rounds; i++ {
		if rec := panicOnce(); rec == nil {
			t.Fatal("panic did not propagate out of Execute")
		}
	}

	// Every panicked transaction ended at the database, and all of them
	// ran on the one shared connection.
	if st := store.Stats(); st.Begins != st.Commits+st.Aborts {
		t.Fatalf("%d transactions begun, %d ended after %d panics", st.Begins, st.Commits+st.Aborts, rounds)
	}
	if n := client.NumConns(); n != 1 {
		t.Fatalf("%d connections open after %d panics, want the shared one", n, rounds)
	}

	// And the datastore must not hold the panicked transactions' locks:
	// a fresh pessimistic transaction on the same row must not time out.
	err := c.Execute(ctx, func(tx *Tx) error {
		it := &item{ID: "a"}
		return tx.Find(it)
	})
	if err != nil {
		t.Fatalf("post-panic transaction failed (leaked lock?): %v", err)
	}
}

// jdbcOverWire is a JDBC container over a real dbwire connection to a
// store holding item a.
func jdbcOverWire(t *testing.T, lockTimeout time.Duration) (*sqlstore.Store, *dbwire.Client, *Container) {
	t.Helper()
	store := sqlstore.New(sqlstore.WithLockTimeout(lockTimeout))
	t.Cleanup(store.Close)
	store.Seed(memento.Memento{
		Key:    memento.Key{Table: "item", ID: "a"},
		Fields: memento.Fields{"owner": memento.String("x"), "n": memento.Int(1)},
	})
	srv := dbwire.NewServer(storeapi.Local(store))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	client := dbwire.Dial(srv.Addr())
	t.Cleanup(func() { _ = client.Close() })
	return store, client, NewContainer(itemRegistry(t), NewJDBCManager(client))
}

// TestChaosCancelledStatementAborts: a JDBC transaction whose statement
// its context cuts off while it waits on a lock ends at the database
// before Execute returns, though the connection it rode stays up.
func TestChaosCancelledStatementAborts(t *testing.T) {
	store, client, c := jdbcOverWire(t, 10*time.Second)
	ctx := context.Background()
	holder, err := client.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := holder.GetForUpdate(ctx, "item", "a"); err != nil {
		t.Fatal(err)
	}

	cctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	err = c.Execute(cctx, func(tx *Tx) error { return tx.Find(&item{ID: "a"}) })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Execute behind a held lock = %v, want DeadlineExceeded", err)
	}
	if st := store.Stats(); st.Begins != st.Commits+st.Aborts+1 {
		t.Fatalf("%d transactions begun, %d ended; want only the holder open", st.Begins, st.Commits+st.Aborts)
	}
	if err := holder.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Begins != st.Commits+st.Aborts {
		t.Fatalf("%d transactions begun, %d ended", st.Begins, st.Commits+st.Aborts)
	}
	if n := client.NumConns(); n != 1 {
		t.Fatalf("%d connections open, want the shared one", n)
	}
}

// abortSpyTx records whether Abort ran; its Commit always fails.
type abortSpyTx struct {
	DataTx
	commitErr error
	aborted   bool
}

func (s *abortSpyTx) Commit(ctx context.Context) error { return s.commitErr }
func (s *abortSpyTx) Abort(ctx context.Context) error  { s.aborted = true; return nil }

type abortSpyRM struct {
	last *abortSpyTx
	err  error
}

func (rm *abortSpyRM) Begin(ctx context.Context) (DataTx, error) {
	rm.last = &abortSpyTx{commitErr: rm.err}
	return rm.last, nil
}

// TestChaosCommitFailureAborts: a commit that fails for transport-level
// reasons must be followed by an abort, so a manager whose commit round
// trip died mid-flight still releases its pins.
func TestChaosCommitFailureAborts(t *testing.T) {
	rm := &abortSpyRM{err: errors.New("wire: connection reset")}
	c := NewContainer(itemRegistry(t), rm)
	err := c.Execute(context.Background(), func(tx *Tx) error { return nil })
	if err == nil {
		t.Fatal("failing commit reported success")
	}
	if !rm.last.aborted {
		t.Fatal("failed commit was not followed by an abort")
	}
}
