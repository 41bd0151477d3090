package dbwire

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// newPair starts a server over a fresh store and returns a client.
func newPair(t *testing.T) (*sqlstore.Store, *Client) {
	t.Helper()
	store := sqlstore.New(sqlstore.WithLockTimeout(200 * time.Millisecond))
	srv := NewServer(storeapi.Local(store))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("start server: %v", err)
	}
	client := Dial(srv.Addr())
	t.Cleanup(func() {
		_ = client.Close()
		srv.Close()
		store.Close()
	})
	return store, client
}

func seed(s *sqlstore.Store, table, id string, v int64) {
	s.Seed(memento.Memento{
		Key:    memento.Key{Table: table, ID: id},
		Fields: memento.Fields{"v": memento.Int(v)},
	})
}

func TestPing(t *testing.T) {
	_, client := newPair(t)
	if err := client.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteTxnCRUD(t *testing.T) {
	store, client := newPair(t)
	seed(store, "t", "1", 10)
	ctx := context.Background()

	txn, err := client.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if txn.ID() == 0 {
		t.Error("remote txn must expose the store transaction id")
	}
	res, err := txn.Get(ctx, "t", "1")
	if err != nil {
		t.Fatal(err)
	}
	m := res.Mem
	if m.Fields["v"].Int != 10 {
		t.Errorf("v = %d, want 10", m.Fields["v"].Int)
	}
	m.Fields["v"] = memento.Int(11)
	if err := txn.Put(ctx, m); err != nil {
		t.Fatal(err)
	}
	if err := txn.Insert(ctx, memento.Memento{
		Key:    memento.Key{Table: "t", ID: "2"},
		Fields: memento.Fields{"v": memento.Int(2)},
	}); err != nil {
		t.Fatal(err)
	}
	qres, err := txn.Query(ctx, memento.Query{Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if len(qres.Mems) != 2 {
		t.Fatalf("query rows = %d, want 2", len(qres.Mems))
	}
	if err := txn.Delete(ctx, "t", "2"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if v, _ := store.CurrentVersion(memento.Key{Table: "t", ID: "1"}); v != 2 {
		t.Errorf("committed version = %d, want 2", v)
	}
	if store.RowCount("t") != 1 {
		t.Error("deleted row survived")
	}
}

func TestErrorSentinelsSurviveTheWire(t *testing.T) {
	store, client := newPair(t)
	seed(store, "t", "1", 1)
	ctx := context.Background()

	txn, err := client.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Abort(ctx)
	if _, err := txn.Get(ctx, "t", "missing"); !errors.Is(err, sqlstore.ErrNotFound) {
		t.Errorf("NotFound lost: %v", err)
	}
	if err := txn.Insert(ctx, memento.Memento{Key: memento.Key{Table: "t", ID: "1"}}); !errors.Is(err, sqlstore.ErrExists) {
		t.Errorf("Exists lost: %v", err)
	}
	if err := txn.CheckVersion(ctx, memento.Key{Table: "t", ID: "1"}, 42); !errors.Is(err, sqlstore.ErrConflict) {
		t.Errorf("Conflict lost: %v", err)
	}
}

func TestAutoOpsAreSingleRoundTrips(t *testing.T) {
	store, client := newPair(t)
	seed(store, "t", "1", 10)
	ctx := context.Background()
	// Prime the pooled connection so dial cost is out of the way.
	if err := client.Ping(ctx); err != nil {
		t.Fatal(err)
	}

	before := client.RoundTrips()
	if _, err := client.AutoGet(ctx, "t", "1"); err != nil {
		t.Fatal(err)
	}
	if got := client.RoundTrips() - before; got != 1 {
		t.Errorf("AutoGet cost %d round trips, want 1", got)
	}
	before = client.RoundTrips()
	if _, err := client.AutoQuery(ctx, memento.Query{Table: "t"}); err != nil {
		t.Fatal(err)
	}
	if got := client.RoundTrips() - before; got != 1 {
		t.Errorf("AutoQuery cost %d round trips, want 1", got)
	}
}

func TestApplyCommitSetSingleRoundTrip(t *testing.T) {
	store, client := newPair(t)
	seed(store, "t", "1", 1)
	ctx := context.Background()
	if err := client.Ping(ctx); err != nil {
		t.Fatal(err)
	}

	before := client.RoundTrips()
	res, err := client.ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{{
			Key:     memento.Key{Table: "t", ID: "1"},
			Version: 1,
			Fields:  memento.Fields{"v": memento.Int(2)},
		}},
		Creates: []memento.Memento{{
			Key:    memento.Key{Table: "t", ID: "2"},
			Fields: memento.Fields{"v": memento.Int(5)},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := client.RoundTrips() - before; got != 1 {
		t.Errorf("ApplyCommitSet cost %d round trips, want exactly 1", got)
	}
	// The seed was commit 1; the set is commit 2, and the reply's one
	// number gives both put keys their version.
	if want := (map[memento.Key]uint64{{Table: "t", ID: "1"}: 2, {Table: "t", ID: "2"}: 2}); res.Seq != 2 || !reflect.DeepEqual(res.NewVersions, want) {
		t.Errorf("result = %+v, want Seq 2 and NewVersions %v", res, want)
	}
	if v, _ := store.CurrentVersion(memento.Key{Table: "t", ID: "2"}); v != res.Seq {
		t.Error("create not applied")
	}

	// Conflicts surface as ErrConflict.
	if _, err := client.ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{{
			Key:     memento.Key{Table: "t", ID: "1"},
			Version: 1,
			Fields:  memento.Fields{"v": memento.Int(3)},
		}},
	}); !errors.Is(err, sqlstore.ErrConflict) {
		t.Fatalf("got %v, want ErrConflict", err)
	}
}

func TestSubscriptionDeliversNotices(t *testing.T) {
	store, client := newPair(t)
	seed(store, "t", "1", 1)
	ctx := context.Background()

	ch, cancel, err := client.Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	res, err := client.ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{{
			Key:     memento.Key{Table: "t", ID: "1"},
			Version: 1,
			Fields:  memento.Fields{"v": memento.Int(2)},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-ch:
		if n.Seq != res.Seq || res.Seq == 0 {
			t.Errorf("notice Seq = %d, want the commit's %d", n.Seq, res.Seq)
		}
		if len(n.Writes) != 1 {
			t.Errorf("notice writes = %v", n.Writes)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no notice within deadline")
	}

	cancel()
	// Channel must close after cancel.
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("channel not closed after cancel")
		}
	}
}

// TestSubscriptionOverflowSeversStream: a subscriber that stops reading
// loses its stream, not notices — after at most a buffer's worth the
// channel closes, and the hung-up connection is gone.
func TestSubscriptionOverflowSeversStream(t *testing.T) {
	store, client := newPair(t)
	seed(store, "t", "1", 1)
	ctx := context.Background()
	ch, cancel, err := client.Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	const commits = 200
	for v := uint64(1); v <= commits; v++ {
		if _, err := store.ApplyCommitSet(ctx, memento.CommitSet{Writes: []memento.Memento{{
			Key: memento.Key{Table: "t", ID: "1"}, Version: v, Fields: memento.Fields{"v": memento.Int(int64(v))},
		}}}); err != nil {
			t.Fatal(err)
		}
	}
	// Read nothing until the 65th notice was delivered — the client
	// counts a push before delivering it, so that is once the 66th is
	// counted — or the stream is already gone.
	deadline := time.After(5 * time.Second)
	for client.WireStats().Pushes <= 65 && client.NumConns() != 0 {
		select {
		case <-deadline:
			t.Fatalf("%d pushes arrived, want more than a buffer's worth", client.WireStats().Pushes)
		case <-time.After(5 * time.Millisecond):
		}
	}
	got := 0
	for open := true; open; {
		select {
		case _, open = <-ch:
			if open {
				got++
			}
		case <-deadline:
			t.Fatalf("channel still open after %d of %d notices", got, commits)
		}
	}
	if got >= commits {
		t.Errorf("read all %d notices, want the stream severed before the end", got)
	}
	for client.NumConns() != 0 {
		select {
		case <-deadline:
			t.Fatalf("%d connections still open after the overflow", client.NumConns())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestConnDropAbortsTransaction(t *testing.T) {
	store, _ := newPair(t)
	seed(store, "t", "1", 1)
	ctx := context.Background()

	// A second client begins a transaction holding a lock, then drops.
	srv := NewServer(storeapi.Local(store))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c2 := Dial(srv.Addr())
	txn, err := c2.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.GetForUpdate(ctx, "t", "1"); err != nil {
		t.Fatal(err)
	}
	_ = c2.Close() // closes idle pool, but txn pins its conn
	// Drop the pinned connection by closing the whole server.
	srv.Close()

	// The lock must be released (server aborts on disconnect).
	deadline := time.Now().Add(2 * time.Second)
	for {
		tx, err := store.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		_, err = tx.GetForUpdate(ctx, "t", "1")
		tx.Abort()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("lock still held after connection drop: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestConcurrentClients(t *testing.T) {
	store, client := newPair(t)
	ctx := context.Background()
	const keys = 8
	for i := 0; i < keys; i++ {
		seed(store, "t", fmt.Sprintf("%d", i), 0)
	}

	var wg sync.WaitGroup
	errs := make(chan error, keys)
	for i := 0; i < keys; i++ {
		id := fmt.Sprintf("%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				txn, err := client.Begin(ctx)
				if err != nil {
					errs <- err
					return
				}
				res, err := txn.Get(ctx, "t", id)
				if err != nil {
					errs <- err
					return
				}
				m := res.Mem
				m.Fields["v"] = memento.Int(m.Fields["v"].Int + 1)
				if err := txn.Put(ctx, m); err != nil {
					errs <- err
					return
				}
				if err := txn.Commit(ctx); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		res, err := storeapi.Local(store).AutoGet(ctx, "t", fmt.Sprintf("%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Mem.Fields["v"].Int != 10 {
			t.Errorf("key %d = %d, want 10", i, res.Mem.Fields["v"].Int)
		}
	}
}

func TestClientRejectsAfterClose(t *testing.T) {
	_, client := newPair(t)
	_ = client.Close()
	if _, err := client.Begin(context.Background()); err == nil {
		t.Fatal("expected error from closed client")
	}
}

func TestChainedServers(t *testing.T) {
	// A dbwire server can serve another dbwire client: the composition
	// the back-end server relies on.
	store := sqlstore.New()
	defer store.Close()
	seed(store, "t", "1", 7)

	inner := NewServer(storeapi.Local(store))
	if err := inner.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer inner.Close()

	mid := Dial(inner.Addr())
	defer mid.Close()
	outer := NewServer(mid)
	if err := outer.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer outer.Close()

	client := Dial(outer.Addr())
	defer client.Close()
	ctx := context.Background()
	res, err := client.AutoGet(ctx, "t", "1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.Fields["v"].Int != 7 {
		t.Errorf("v = %d, want 7", res.Mem.Fields["v"].Int)
	}

	// A transaction through two hops still reports the store's tx id.
	txn, err := client.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Abort(ctx)
	if txn.ID() == 0 {
		t.Error("chained txn lost the store id")
	}
}
