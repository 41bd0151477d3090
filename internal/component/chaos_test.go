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
// abort the transaction and release whatever the resource manager
// pinned at Begin. The JDBC manager pins a dbwire stream per
// transaction; pre-fix, Execute let the panic unwind without aborting,
// so every panicking transaction leaked one pinned connection (visible
// as monotonic NumConns growth) and kept its row locks.
func TestChaosPanicAbortsTransaction(t *testing.T) {
	store := sqlstore.New(sqlstore.WithLockTimeout(2 * time.Second))
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

	c := NewContainer(itemRegistry(t), NewJDBCManager(client))
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

	// Pinned streams must have been returned to the pool, not leaked
	// one per panic: allow the pooled pin plus the shared conn.
	if n := client.NumConns(); n > 2 {
		t.Fatalf("connections leaked across panicking transactions: %d open after %d panics", n, rounds)
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
