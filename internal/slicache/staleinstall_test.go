package slicache

import (
	"context"
	"testing"
	"time"

	"edgeejb/internal/component"
	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// overtakeConn is a Conn that, once armed, lets the store answer the
// armed call and then, before the reply reaches the edge, commits a
// new version of the row the call named under another edge's origin
// and waits until the edge has applied that commit's notice.
type overtakeConn struct {
	storeapi.Conn
	t     *testing.T
	store *sqlstore.Store
	mgr   *Manager
	armed string // "AutoGet", "AutoQuery" or "ApplyCommitSet"
	row   memento.Key
}

func (c *overtakeConn) overtake(op string) {
	if c.armed != op {
		return
	}
	c.armed = ""
	cur, err := c.store.Get(c.row)
	if err != nil {
		c.t.Fatal(err)
	}
	next := cur.Clone()
	next.Fields["n"] = memento.Int(next.Fields["n"].Int + 1)
	applied := c.mgr.Stats().NoticesApplied
	cs := memento.CommitSet{Origin: 1<<62 | 7, Writes: []memento.Memento{next}}
	if _, err := c.store.ApplyCommitSet(context.Background(), cs); err != nil {
		c.t.Fatal(err)
	}
	waitFor(c.t, 3*time.Second, func() bool { return c.mgr.Stats().NoticesApplied > applied })
}

func (c *overtakeConn) AutoGet(ctx context.Context, table, id string) (storeapi.GetResult, error) {
	res, err := c.Conn.AutoGet(ctx, table, id)
	c.overtake("AutoGet")
	return res, err
}

func (c *overtakeConn) AutoQuery(ctx context.Context, q memento.Query) (storeapi.QueryResult, error) {
	res, err := c.Conn.AutoQuery(ctx, q)
	c.overtake("AutoQuery")
	return res, err
}

func (c *overtakeConn) ApplyCommitSet(ctx context.Context, cs memento.CommitSet) (sqlstore.ApplyResult, error) {
	res, err := c.Conn.ApplyCommitSet(ctx, cs)
	c.overtake("ApplyCommitSet")
	return res, err
}

// TestNoticeOvertakesInstall: a reply still in flight when another
// edge's notice for one of its rows is applied must not be installed in
// the common store. The notice evicts only what is cached, and the
// reply's row is not cached yet, so without the fill rule the edge
// would keep the older row until some later conflict evicted it. The
// three installs are a miss fetch, a finder's fresh rows and this
// edge's own commit.
func TestNoticeOvertakesInstall(t *testing.T) {
	h := memento.Key{Table: "t", ID: "h1"}
	seeded := memento.Memento{Key: h, Fields: memento.Fields{"acct": memento.String("u1"), "n": memento.Int(1)}}
	cases := map[string]func(t *testing.T, conn *overtakeConn, mgr *Manager){
		"miss fetch": func(t *testing.T, conn *overtakeConn, mgr *Manager) {
			conn.armed = "AutoGet"
			dt, err := mgr.Begin(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dt.Load(context.Background(), h); err != nil {
				t.Fatal(err)
			}
			_ = dt.Abort(context.Background())
		},
		"finder": func(t *testing.T, conn *overtakeConn, mgr *Manager) {
			conn.armed = "AutoQuery"
			dt, err := mgr.Begin(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dt.Query(context.Background(), byAcct("u1")); err != nil {
				t.Fatal(err)
			}
			_ = dt.Abort(context.Background())
		},
		"own commit": func(t *testing.T, conn *overtakeConn, mgr *Manager) {
			ctx := context.Background()
			dt, err := mgr.Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			m, err := dt.Load(ctx, h)
			if err != nil {
				t.Fatal(err)
			}
			m.Fields["n"] = memento.Int(10)
			if err := dt.Store(ctx, m); err != nil {
				t.Fatal(err)
			}
			conn.armed = "ApplyCommitSet"
			if err := dt.Commit(ctx); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			store := sqlstore.New()
			t.Cleanup(store.Close)
			store.Seed(seeded)
			conn := &overtakeConn{Conn: storeapi.Local(store), t: t, store: store, row: h}
			mgr := NewManager(conn, WithShipping(WholeSet))
			conn.mgr = mgr
			t.Cleanup(mgr.Close)
			if err := mgr.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			run(t, conn, mgr)
			if conn.armed != "" {
				t.Fatalf("the store call armed as %s never ran", conn.armed)
			}
			want, err := store.Get(h)
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := mgr.CommonStore().Get(h); ok && got.Version != want.Version {
				t.Errorf("common store holds %s at version %d, the store %d", h, got.Version, want.Version)
			}
		})
	}
}

// versionlessConn applies a commit set but answers it as a store that
// reports no new version, so the edge cannot tell which version its own
// write made. Once afterQuery is set, the next finder query runs it
// after the store answered and before the reply reaches the edge.
type versionlessConn struct {
	storeapi.Conn
	afterQuery func()
}

func (c *versionlessConn) ApplyCommitSet(ctx context.Context, cs memento.CommitSet) (sqlstore.ApplyResult, error) {
	_, err := c.Conn.ApplyCommitSet(ctx, cs)
	return sqlstore.ApplyResult{}, err
}

func (c *versionlessConn) AutoQuery(ctx context.Context, q memento.Query) (storeapi.QueryResult, error) {
	res, err := c.Conn.AutoQuery(ctx, q)
	if run := c.afterQuery; run != nil {
		c.afterQuery = nil
		run()
	}
	return res, err
}

// TestVersionlessOwnWrite: when the reply to an own commit carries no
// new version for a row it wrote, the edge holds only that row's
// pre-commit image, so it evicts the row as a blind write. The common
// store must not keep the row, no cached finder result on its table may
// survive, and a finder whose store call is in flight must hear the
// write and install neither its result nor the row.
func TestVersionlessOwnWrite(t *testing.T) {
	ctx := context.Background()
	h1 := memento.Key{Table: "t", ID: "h1"}
	setup := func(t *testing.T) (*versionlessConn, *Manager) {
		store := sqlstore.New()
		t.Cleanup(store.Close)
		store.Seed(holding("h1", "u1"), holding("h2", "u1"))
		conn := &versionlessConn{Conn: storeapi.Local(store)}
		mgr := NewManager(conn, WithShipping(WholeSet), WithFinderCache(true))
		t.Cleanup(mgr.Close)
		return conn, mgr
	}
	run := func(t *testing.T, mgr *Manager, tx func(dt component.DataTx) error) {
		dt, err := mgr.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx(dt); err != nil {
			t.Fatal(err)
		}
		if err := dt.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	finder := func(dt component.DataTx) error {
		_, err := dt.Query(ctx, byAcct("u1"))
		return err
	}
	update := func(dt component.DataTx) error {
		m, err := dt.Load(ctx, h1)
		if err != nil {
			return err
		}
		m.Fields["n"] = memento.Int(9)
		return dt.Store(ctx, m)
	}
	check := func(t *testing.T, mgr *Manager) {
		t.Helper()
		if m, ok := mgr.CommonStore().Get(h1); ok {
			t.Errorf("common store holds %s at its pre-commit version %d", h1, m.Version)
		}
		if n := mgr.FinderCache().Len(); n != 0 {
			t.Errorf("%d finder results on the written table survived", n)
		}
	}

	t.Run("cached", func(t *testing.T) {
		_, mgr := setup(t)
		run(t, mgr, finder)
		if _, ok := mgr.CommonStore().Get(h1); !ok || mgr.FinderCache().Len() != 1 {
			t.Fatal("the finder did not cache its result and rows")
		}
		run(t, mgr, update)
		check(t, mgr)
	})
	t.Run("open fill", func(t *testing.T) {
		conn, mgr := setup(t)
		conn.afterQuery = func() { run(t, mgr, update) }
		run(t, mgr, finder)
		if conn.afterQuery != nil {
			t.Fatal("the finder's store call never ran")
		}
		check(t, mgr)
	})
}
