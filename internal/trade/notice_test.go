package trade

import (
	"context"
	"sync"
	"testing"
	"time"

	"edgeejb/internal/backend"
	"edgeejb/internal/component"
	"edgeejb/internal/dbwire"
	"edgeejb/internal/memento"
	"edgeejb/internal/slicache"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// These tests hold what a notice carries to each kind of subscriber, on
// ES/RBES with two edges: an edge whose finder cache is off hears every
// write as its key alone, and so does the back-end that relays its
// stream; an edge whose finder cache is on hears the field images its
// overlap test reads.

// noticeTap is a Conn that records every notice its subscriptions
// deliver.
type noticeTap struct {
	storeapi.Conn
	mu    sync.Mutex
	heard []sqlstore.Notice
}

func (c *noticeTap) Subscribe(ctx context.Context) (<-chan sqlstore.Notice, func(), error) {
	in, cancel, err := c.Conn.Subscribe(ctx)
	if err != nil {
		return nil, nil, err
	}
	out := make(chan sqlstore.Notice, 64)
	go func() {
		defer close(out)
		for n := range in {
			c.mu.Lock()
			c.heard = append(c.heard, n)
			c.mu.Unlock()
			out <- n
		}
	}()
	return out, cancel, nil
}

// writes is every write descriptor the tap has heard.
func (c *noticeTap) writes() []memento.WriteDesc {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ws []memento.WriteDesc
	for _, n := range c.heard {
		ws = append(ws, n.Writes...)
	}
	return ws
}

// twoEdges is a store behind its database server, one back-end server,
// and two edge caches, A and B, each over its own dbwire client to the
// back-end and both started. A's subscription and the back-end's
// database subscriptions are tapped.
type twoEdges struct {
	a, b            *slicache.Manager
	heardA, heardBE *noticeTap
}

func newTwoEdges(t *testing.T, finderCache bool) *twoEdges {
	t.Helper()
	store := sqlstore.New()
	t.Cleanup(store.Close)
	Populate(store, PopulateConfig{Users: 4, Symbols: 8, HoldingsPerUser: 2, OpenBalance: 100_000})
	dbSrv := dbwire.NewServer(storeapi.Local(store))
	if err := dbSrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dbSrv.Close)
	dbClient := dbwire.Dial(dbSrv.Addr())
	t.Cleanup(func() { _ = dbClient.Close() })
	e := &twoEdges{heardA: &noticeTap{}, heardBE: &noticeTap{Conn: dbClient}}
	be := backend.NewServer(e.heardBE)
	if err := be.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(be.Close)

	edge := func(tap *noticeTap) *slicache.Manager {
		client := dbwire.Dial(be.Addr())
		t.Cleanup(func() { _ = client.Close() })
		var conn storeapi.Conn = client
		if tap != nil {
			tap.Conn = client
			conn = tap
		}
		mgr := slicache.NewManager(conn, slicache.WithShipping(slicache.WholeSet), slicache.WithFinderCache(finderCache))
		t.Cleanup(mgr.Close)
		if err := mgr.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		return mgr
	}
	e.a = edge(e.heardA)
	e.b = edge(nil)
	return e
}

// changeHolding commits one change to the first of user's holdings on
// mgr and returns the holding's key.
func changeHolding(t *testing.T, mgr *slicache.Manager, user string, change func(memento.Fields)) memento.Key {
	t.Helper()
	ctx := context.Background()
	dt, err := mgr.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := dt.Query(ctx, HoldingsByAccount(user))
	if err != nil || len(rows) == 0 {
		t.Fatalf("%s's holdings: %v, %v", user, rows, err)
	}
	change(rows[0].Fields)
	if err := dt.Store(ctx, rows[0]); err != nil {
		t.Fatal(err)
	}
	if err := dt.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	return rows[0].Key
}

// readOn runs fn in one transaction on mgr and aborts it.
func readOn(t *testing.T, mgr *slicache.Manager, fn func(context.Context, component.DataTx) error) {
	t.Helper()
	ctx := context.Background()
	dt, err := mgr.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Abort(ctx)
	if err := fn(ctx, dt); err != nil {
		t.Fatal(err)
	}
}

// waitUntil polls cond until it holds or five seconds pass.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 5s", what)
		}
	}
}

// TestFinderlessEdgeEvictsByKey: with the finder cache off, edge A and
// the back-end hear the same notices a finder-cache edge does, every
// write descriptor with its image, and A's common store evicts the
// holding B wrote by its key.
func TestFinderlessEdgeEvictsByKey(t *testing.T) {
	e := newTwoEdges(t, false)
	user := UserID(2)
	var cached memento.Key
	readOn(t, e.a, func(ctx context.Context, dt component.DataTx) error {
		rows, err := dt.Query(ctx, HoldingsByAccount(user))
		if err == nil {
			cached = rows[0].Key
		}
		return err
	})
	if _, ok := e.a.CommonStore().Get(cached); !ok {
		t.Fatalf("A did not cache %v", cached)
	}

	written := changeHolding(t, e.b, user, func(f memento.Fields) { f["quantity"] = memento.Float(f["quantity"].F + 1) })
	if written != cached {
		t.Fatalf("B wrote %v, A cached %v", written, cached)
	}
	waitUntil(t, "A evicts the holding B wrote", func() bool {
		_, ok := e.a.CommonStore().Get(written)
		return !ok
	})
	for name, tap := range map[string]*noticeTap{"A": e.heardA, "the back-end": e.heardBE} {
		ws := tap.writes()
		if len(ws) == 0 {
			t.Errorf("%s heard no write", name)
		}
		for _, w := range ws {
			if w.Blind() {
				t.Errorf("%s heard %v blind, want its image", name, w.Key)
			}
		}
	}
}

// TestFinderCacheEdgeHearsImages: with the finder cache on, edge A
// hears after-images, so its cached HoldingsByAccount result survives a
// write to the quantity of a holding outside it, which a blind write
// would have evicted, and is evicted by a write that moves a holding
// into it through holding.accountID, whose key the result never held.
func TestFinderCacheEdgeHearsImages(t *testing.T) {
	e := newTwoEdges(t, true)
	mine, other := UserID(1), UserID(2)
	readOn(t, e.a, func(ctx context.Context, dt component.DataTx) error {
		_, err := dt.Query(ctx, HoldingsByAccount(mine))
		return err
	})
	if n := e.a.FinderCache().Len(); n != 1 {
		t.Fatalf("A caches %d finder results, want 1", n)
	}

	changeHolding(t, e.b, other, func(f memento.Fields) { f["quantity"] = memento.Float(f["quantity"].F + 1) })
	waitUntil(t, "A applies the quantity write", func() bool { return e.a.Stats().NoticesApplied == 1 })
	if n := e.a.FinderCache().Len(); n != 1 {
		t.Fatalf("a write to quantity outside A's result evicted it")
	}

	changeHolding(t, e.b, other, func(f memento.Fields) { f["accountID"] = memento.String(mine) })
	waitUntil(t, "A evicts its result", func() bool { return e.a.FinderCache().Len() == 0 })
	for name, tap := range map[string]*noticeTap{"A": e.heardA, "the back-end": e.heardBE} {
		ws := tap.writes()
		if len(ws) == 0 {
			t.Errorf("%s heard no write", name)
		}
		for _, w := range ws {
			if w.Blind() {
				t.Errorf("%s heard %v blind, want its after-image", name, w.Key)
			}
		}
	}
}
