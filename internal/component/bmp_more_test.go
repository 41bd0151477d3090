package component

import (
	"context"
	"errors"
	"testing"

	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
)

func TestBMPCreateUpdateRemoveLifecycle(t *testing.T) {
	store, conn := newStore(t)
	c := NewContainer(itemRegistry(t), NewBMPManager(conn))
	ctx := context.Background()

	// Create then update in one transaction.
	if err := c.Execute(ctx, func(tx *Tx) error {
		if err := tx.Create(&item{ID: "x", Owner: "a", N: 1}); err != nil {
			return err
		}
		it := &item{ID: "x"}
		if err := tx.Find(it); err != nil {
			return err
		}
		it.N = 2
		return tx.Update(it)
	}); err != nil {
		t.Fatal(err)
	}
	// The committed state reflects the update.
	if err := c.Execute(ctx, func(tx *Tx) error {
		it := &item{ID: "x"}
		if err := tx.Find(it); err != nil {
			return err
		}
		if it.N != 2 {
			t.Errorf("n = %d, want 2", it.N)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Remove; the delete is immediate and survives commit.
	if err := c.Execute(ctx, func(tx *Tx) error {
		return tx.Remove(&item{ID: "x"})
	}); err != nil {
		t.Fatal(err)
	}
	if store.RowCount("item") != 0 {
		t.Error("remove did not commit")
	}
}

func TestBMPRemoveAfterLoadNotStoredBack(t *testing.T) {
	// A bean activated then removed in the same transaction must not be
	// resurrected by the unconditional ejbStore pass at commit.
	store, conn := newStore(t, item{ID: "1", Owner: "a", N: 1})
	c := NewContainer(itemRegistry(t), NewBMPManager(conn))
	ctx := context.Background()

	if err := c.Execute(ctx, func(tx *Tx) error {
		it := &item{ID: "1"}
		if err := tx.Find(it); err != nil {
			return err
		}
		return tx.Remove(it)
	}); err != nil {
		t.Fatal(err)
	}
	if store.RowCount("item") != 0 {
		t.Error("removed bean resurrected by ejbStore")
	}
}

func TestBMPAbortDiscardsEverything(t *testing.T) {
	store, conn := newStore(t, item{ID: "1", Owner: "a", N: 1})
	c := NewContainer(itemRegistry(t), NewBMPManager(conn))
	ctx := context.Background()
	boom := errors.New("boom")

	err := c.Execute(ctx, func(tx *Tx) error {
		if err := tx.Create(&item{ID: "2", Owner: "b", N: 2}); err != nil {
			return err
		}
		it := &item{ID: "1"}
		if err := tx.Find(it); err != nil {
			return err
		}
		it.N = 99
		if err := tx.Update(it); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if store.RowCount("item") != 1 {
		t.Error("aborted create leaked")
	}
	m, err := storeAutoGet(store, "item", "1")
	if err != nil {
		t.Fatal(err)
	}
	if m.Fields["n"].Int != 1 {
		t.Error("aborted update leaked")
	}
}

func TestTxContext(t *testing.T) {
	_, conn := newStore(t)
	c := NewContainer(itemRegistry(t), NewJDBCManager(conn))
	type ctxKey struct{}
	ctx := context.WithValue(context.Background(), ctxKey{}, "marker")
	err := c.Execute(ctx, func(tx *Tx) error {
		if tx.Context().Value(ctxKey{}) != "marker" {
			t.Error("transaction context not propagated")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// storeAutoGet reads a committed row with a short transaction.
func storeAutoGet(store *sqlstore.Store, table, id string) (memento.Memento, error) {
	tx, err := store.Begin(context.Background())
	if err != nil {
		return memento.Memento{}, err
	}
	defer tx.Abort()
	m, err := tx.Get(context.Background(), table, id)
	if err != nil {
		return memento.Memento{}, err
	}
	return m, tx.Commit()
}
