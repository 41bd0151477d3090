package component

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// item is a minimal test entity.
type item struct {
	ID    string
	Owner string
	N     int64
}

var _ Entity = (*item)(nil)

func (i *item) PrimaryKey() memento.Key { return memento.Key{Table: "item", ID: i.ID} }

func (i *item) ToMemento() memento.Memento {
	return memento.Memento{
		Key: i.PrimaryKey(),
		Fields: memento.Fields{
			"owner": memento.String(i.Owner),
			"n":     memento.Int(i.N),
		},
	}
}

func (i *item) LoadMemento(m memento.Memento) error {
	if m.Key.Table != "item" {
		return fmt.Errorf("not an item: %s", m.Key)
	}
	i.ID = m.Key.ID
	i.Owner = m.Fields["owner"].Str
	i.N = m.Fields["n"].Int
	return nil
}

func itemRegistry(t *testing.T) *Registry {
	t.Helper()
	r, err := NewRegistry(Descriptor{Table: "item", New: func() Entity { return &item{} }})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// newStore seeds a store and returns it with a handle that counts every
// statement that would be a wire round trip.
func newStore(t *testing.T, items ...item) (*sqlstore.Store, *storeapi.CountingConn) {
	t.Helper()
	store := sqlstore.New()
	t.Cleanup(store.Close)
	for _, it := range items {
		store.Seed(it.ToMemento())
	}
	return store, storeapi.NewCountingConn(storeapi.Local(store))
}

func TestRegistryValidation(t *testing.T) {
	if _, err := NewRegistry(Descriptor{Table: "", New: func() Entity { return &item{} }}); err == nil {
		t.Error("empty table accepted")
	}
	if _, err := NewRegistry(Descriptor{Table: "x", New: nil}); err == nil {
		t.Error("nil constructor accepted")
	}
	d := Descriptor{Table: "x", New: func() Entity { return &item{} }}
	if _, err := NewRegistry(d, d); err == nil {
		t.Error("duplicate table accepted")
	}
	r, err := NewRegistry(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup("missing"); err == nil {
		t.Error("missing table lookup succeeded")
	}
}

func TestContainerExecuteCommit(t *testing.T) {
	_, conn := newStore(t, item{ID: "1", Owner: "a", N: 1})
	c := NewContainer(itemRegistry(t), NewJDBCManager(conn))
	ctx := context.Background()

	err := c.Execute(ctx, func(tx *Tx) error {
		it := &item{ID: "1"}
		if err := tx.Find(it); err != nil {
			return err
		}
		it.N = 5
		return tx.Update(it)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Verify the write committed.
	err = c.Execute(ctx, func(tx *Tx) error {
		it := &item{ID: "1"}
		if err := tx.Find(it); err != nil {
			return err
		}
		if it.N != 5 {
			return fmt.Errorf("n = %d, want 5", it.N)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestContainerExecuteAbortOnError(t *testing.T) {
	_, conn := newStore(t, item{ID: "1", Owner: "a", N: 1})
	c := NewContainer(itemRegistry(t), NewJDBCManager(conn))
	ctx := context.Background()
	boom := errors.New("boom")

	err := c.Execute(ctx, func(tx *Tx) error {
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
		t.Fatalf("got %v, want boom", err)
	}
	_ = c.Execute(ctx, func(tx *Tx) error {
		it := &item{ID: "1"}
		if err := tx.Find(it); err != nil {
			return err
		}
		if it.N != 1 {
			t.Errorf("aborted write leaked: n = %d", it.N)
		}
		return nil
	})
}

func TestContainerRollbackSentinel(t *testing.T) {
	_, conn := newStore(t, item{ID: "1", Owner: "a", N: 1})
	c := NewContainer(itemRegistry(t), NewJDBCManager(conn))
	err := c.Execute(context.Background(), func(tx *Tx) error {
		return ErrRollback
	})
	if err != nil {
		t.Fatalf("ErrRollback should not surface: %v", err)
	}
}

func TestFindWhereMaterializesEntities(t *testing.T) {
	_, conn := newStore(t,
		item{ID: "1", Owner: "a", N: 1},
		item{ID: "2", Owner: "a", N: 2},
		item{ID: "3", Owner: "b", N: 3},
	)
	c := NewContainer(itemRegistry(t), NewJDBCManager(conn))
	err := c.Execute(context.Background(), func(tx *Tx) error {
		ents, err := tx.FindWhere(memento.Query{
			Table: "item",
			Where: []memento.Predicate{memento.Where("owner", memento.String("a"))},
		})
		if err != nil {
			return err
		}
		if len(ents) != 2 {
			return fmt.Errorf("got %d entities, want 2", len(ents))
		}
		for _, e := range ents {
			if _, ok := e.(*item); !ok {
				return fmt.Errorf("wrong type %T", e)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCreateAndRemove(t *testing.T) {
	store, conn := newStore(t)
	c := NewContainer(itemRegistry(t), NewJDBCManager(conn))
	ctx := context.Background()

	if err := c.Execute(ctx, func(tx *Tx) error {
		return tx.Create(&item{ID: "n1", Owner: "x", N: 7})
	}); err != nil {
		t.Fatal(err)
	}
	if store.RowCount("item") != 1 {
		t.Fatal("create did not persist")
	}
	if err := c.Execute(ctx, func(tx *Tx) error {
		return tx.Remove(&item{ID: "n1"})
	}); err != nil {
		t.Fatal(err)
	}
	if store.RowCount("item") != 0 {
		t.Fatal("remove did not persist")
	}
}

func TestNotFoundSurfaces(t *testing.T) {
	_, conn := newStore(t)
	c := NewContainer(itemRegistry(t), NewJDBCManager(conn))
	err := c.Execute(context.Background(), func(tx *Tx) error {
		return tx.Find(&item{ID: "ghost"})
	})
	if !errors.Is(err, sqlstore.ErrNotFound) {
		t.Fatalf("got %v, want not-found", err)
	}
}

// TestJDBCStatementCache: repeated Finds of the same bean in one
// transaction cost one Get — the hand-optimized behavior.
func TestJDBCStatementCache(t *testing.T) {
	_, conn := newStore(t, item{ID: "1", Owner: "a", N: 1})
	c := NewContainer(itemRegistry(t), NewJDBCManager(conn))

	before := conn.Ops()
	err := c.Execute(context.Background(), func(tx *Tx) error {
		for i := 0; i < 5; i++ {
			if err := tx.Find(&item{ID: "1"}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// begin + 1 get + commit = 3 statements.
	if got := conn.Ops() - before; got != 3 {
		t.Errorf("JDBC repeated find cost %d statements, want 3", got)
	}
}

// TestBMPDoubleLoad: a single Find under BMP costs two Gets (finder
// existence check + ejbLoad) and an unconditional ejbStore at commit,
// one statement each as the paper ships them.
func TestBMPDoubleLoadAndUnconditionalStore(t *testing.T) {
	_, conn := newStore(t, item{ID: "1", Owner: "a", N: 1})
	c := NewContainer(itemRegistry(t), NewBMPManager(conn, WithBatching(false)))

	before := conn.Ops()
	err := c.Execute(context.Background(), func(tx *Tx) error {
		return tx.Find(&item{ID: "1"}) // read-only access
	})
	if err != nil {
		t.Fatal(err)
	}
	// begin + get + get + put(ejbStore of a CLEAN bean) + commit = 5.
	if got := conn.Ops() - before; got != 5 {
		t.Errorf("BMP read-only find cost %d statements, want 5", got)
	}
}

// TestBMPFinderNPlusOne: a custom finder with N results costs 1 query +
// N ejbLoads (plus N ejbStores at commit), one statement each as the
// paper ships them.
func TestBMPFinderNPlusOne(t *testing.T) {
	const n = 4
	var items []item
	for i := 0; i < n; i++ {
		items = append(items, item{ID: fmt.Sprintf("%d", i), Owner: "a", N: int64(i)})
	}
	_, conn := newStore(t, items...)
	c := NewContainer(itemRegistry(t), NewBMPManager(conn, WithBatching(false)))

	before := conn.Ops()
	err := c.Execute(context.Background(), func(tx *Tx) error {
		ents, err := tx.FindWhere(memento.Query{
			Table: "item",
			Where: []memento.Predicate{memento.Where("owner", memento.String("a"))},
		})
		if err != nil {
			return err
		}
		if len(ents) != n {
			return fmt.Errorf("got %d, want %d", len(ents), n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// begin + query + N gets + N ejbStores + commit.
	want := uint64(1 + 1 + n + n + 1)
	if got := conn.Ops() - before; got != want {
		t.Errorf("BMP finder cost %d statements, want %d", got, want)
	}
}

// TestJDBCFinderReusesSelect: the JDBC finder costs 1 query; later Finds
// of result rows are free.
func TestJDBCFinderReusesSelect(t *testing.T) {
	_, conn := newStore(t,
		item{ID: "1", Owner: "a", N: 1},
		item{ID: "2", Owner: "a", N: 2},
	)
	c := NewContainer(itemRegistry(t), NewJDBCManager(conn))

	before := conn.Ops()
	err := c.Execute(context.Background(), func(tx *Tx) error {
		if _, err := tx.FindWhere(memento.Query{
			Table: "item",
			Where: []memento.Predicate{memento.Where("owner", memento.String("a"))},
		}); err != nil {
			return err
		}
		// Re-reading a row from the result set must hit the statement
		// cache.
		return tx.Find(&item{ID: "1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	// begin + query + commit = 3.
	if got := conn.Ops() - before; got != 3 {
		t.Errorf("JDBC finder+find cost %d statements, want 3", got)
	}
}

func TestExecuteRetryOnConflict(t *testing.T) {
	store, conn := newStore(t, item{ID: "1", Owner: "a", N: 0})
	c := NewContainer(itemRegistry(t), NewJDBCManager(conn))
	ctx := context.Background()

	attempts := 0
	err := c.ExecuteRetry(ctx, 3, func(tx *Tx) error {
		attempts++
		it := &item{ID: "1"}
		if err := tx.Find(it); err != nil {
			return err
		}
		if attempts == 1 {
			// Sabotage: bump the row underneath the transaction via an
			// optimistic apply, then fail with a synthetic conflict.
			return fmt.Errorf("synthetic: %w", sqlstore.ErrConflict)
		}
		it.N++
		return tx.Update(it)
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Errorf("attempts = %d, want 2", attempts)
	}
	_ = store
}

func TestExecuteRetryGivesUp(t *testing.T) {
	_, conn := newStore(t, item{ID: "1", Owner: "a", N: 0})
	c := NewContainer(itemRegistry(t), NewJDBCManager(conn))
	err := c.ExecuteRetry(context.Background(), 2, func(tx *Tx) error {
		return fmt.Errorf("always: %w", sqlstore.ErrConflict)
	})
	if !IsConflict(err) {
		t.Fatalf("got %v, want conflict", err)
	}
}

// manyTx is a DataTx that also implements MultiLoader; it records the
// key list it was handed and fails the test if asked key by key.
type manyTx struct {
	DataTx
	t    *testing.T
	seen [][]memento.Key
}

func (m *manyTx) Load(ctx context.Context, key memento.Key) (memento.Memento, error) {
	m.t.Errorf("Load(%s) on a MultiLoader asked for several entities", key)
	return m.DataTx.Load(ctx, key)
}

func (m *manyTx) LoadMany(ctx context.Context, keys []memento.Key) ([]memento.Memento, error) {
	m.seen = append(m.seen, keys)
	out := make([]memento.Memento, len(keys))
	for i, k := range keys {
		mem, err := m.DataTx.Load(ctx, k)
		if err != nil {
			return nil, err
		}
		out[i] = mem
	}
	return out, nil
}

// TestFindSeveralEntities: one Find naming several entities loads every
// one of them, through LoadMany in a single call when the manager has it
// and in argument order, stopping at the first failure, when it has not.
func TestFindSeveralEntities(t *testing.T) {
	_, conn := newStore(t, item{ID: "1", Owner: "a", N: 1}, item{ID: "2", Owner: "b", N: 2})
	ctx := context.Background()
	dt, err := NewJDBCManager(conn).Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Abort(ctx)

	many := &manyTx{DataTx: dt, t: t}
	a, b := &item{ID: "1"}, &item{ID: "2"}
	if err := (&Tx{ctx: ctx, dt: many}).Find(a, b); err != nil {
		t.Fatal(err)
	}
	if a.Owner != "a" || b.Owner != "b" {
		t.Errorf("found %+v and %+v", a, b)
	}
	want := [][]memento.Key{{a.PrimaryKey(), b.PrimaryKey()}}
	if !reflect.DeepEqual(many.seen, want) {
		t.Errorf("LoadMany saw %v, want %v", many.seen, want)
	}

	// A plain DataTx: statements in argument order, none after a failure.
	before := conn.Ops()
	c, ghost, d := &item{ID: "2"}, &item{ID: "ghost"}, &item{ID: "1"}
	err = (&Tx{ctx: ctx, dt: dt}).Find(c, ghost, d)
	if !errors.Is(err, sqlstore.ErrNotFound) {
		t.Fatalf("got %v, want not-found", err)
	}
	if c.Owner != "b" || d.Owner != "" {
		t.Errorf("serial Find loaded %+v and %+v, want the first only", c, d)
	}
	// "2" and "1" are in the statement cache by now; only the ghost's
	// SELECT reaches the store.
	if got := conn.Ops() - before; got != 1 {
		t.Errorf("serial Find issued %d statements, want 1", got)
	}
}
