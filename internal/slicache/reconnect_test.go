package slicache

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgeejb/internal/dbwire"
	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// TestInvalidationStreamResubscribes: when the server carrying the
// invalidation stream restarts, the manager must clear both caches (it
// may have missed notices), serve nothing from them while the server is
// down, and resubscribe, after which pushed invalidations flow again.
func TestInvalidationStreamResubscribes(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	store.Seed(row("1", 1), holding("h1", "u1"))
	ctx := context.Background()

	srv := dbwire.NewServer(storeapi.Local(store))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	client := dbwire.Dial(addr)
	defer client.Close()
	mgr := NewManager(client, WithShipping(WholeSet), WithFinderCache(true))
	defer mgr.Close()
	if err := mgr.Start(ctx); err != nil {
		t.Fatal(err)
	}

	// Warm both caches.
	dt, err := mgr.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dt.Load(ctx, key("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := dt.Query(ctx, byAcct("u1")); err != nil {
		t.Fatal(err)
	}
	if err := dt.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if mgr.CommonStore().Len() != 2 || mgr.FinderCache().Len() != 1 {
		t.Fatalf("caches not warm: %d entries, %d finder results",
			mgr.CommonStore().Len(), mgr.FinderCache().Len())
	}

	// Kill the server: the subscription drops and both caches must clear.
	srv.Close()
	waitFor(t, 3*time.Second, func() bool {
		return mgr.CommonStore().Len() == 0 && mgr.FinderCache().Len() == 0
	})
	// With the server down, nothing is served from what was cached.
	dt1, err := mgr.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := dt1.Load(ctx, key("1")); err == nil {
		t.Fatalf("Load with the server down = %v, want an error", m)
	}
	if got, err := dt1.Query(ctx, byAcct("u1")); err == nil {
		t.Fatalf("Query with the server down = %v, want an error", got)
	}
	_ = dt1.Abort(ctx)

	// Restart on the same address; the manager must resubscribe.
	srv2 := dbwire.NewServer(storeapi.Local(store))
	if err := srv2.Start(addr); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	waitFor(t, 5*time.Second, func() bool { return mgr.Stats().Resubscribes >= 1 })

	// Re-warm, then verify pushed invalidations flow on the new stream.
	dt2, err := mgr.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dt2.Load(ctx, key("1")); err != nil {
		t.Fatal(err)
	}
	if err := dt2.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := mgr.CommonStore().Get(key("1")); !ok {
		t.Fatal("cache not re-warmed")
	}
	if _, err := store.ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{{Key: key("1"), Version: currentVersion(t, store), Fields: memento.Fields{"n": memento.Int(99)}}},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool {
		_, ok := mgr.CommonStore().Get(key("1"))
		return !ok
	})
}

// TestFinderEntryDoesNotSurviveOverflow: an edge that falls a full
// buffer behind its invalidation stream must not keep a finder entry
// whose notice it never saw. Commit validation would not catch it — it
// re-proves the rows read, not the predicate — so the overflow has to
// cost the edge its stream, and with it the cache.
func TestFinderEntryDoesNotSurviveOverflow(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	store.Seed(holding("h1", "u1"), row("x", 0))
	ctx := context.Background()
	srv := dbwire.NewServer(storeapi.Local(store))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := dbwire.Dial(srv.Addr())
	defer client.Close()

	// Applying a stamped notice reads the clock: the gate parks the
	// edge's notice consumer there while the stream backs up.
	var gated atomic.Bool
	gate, parked := make(chan struct{}), make(chan struct{}, 1)
	mgr := NewManager(client, WithFinderCache(true), WithShipping(WholeSet))
	defer mgr.Close()
	mgr.SetClock(func() time.Time {
		if gated.Load() {
			select {
			case parked <- struct{}{}:
			default:
			}
			<-gate
		}
		return time.Now()
	})
	release := sync.OnceFunc(func() {
		gated.Store(false)
		close(gate)
	})
	defer release() // before mgr.Close, which waits for the consumer
	if err := mgr.Start(ctx); err != nil {
		t.Fatal(err)
	}
	dt, err := mgr.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dt.Query(ctx, byAcct("u1")); err != nil {
		t.Fatal(err)
	}
	_ = dt.Abort(ctx)
	if mgr.FinderCache().Len() != 1 {
		t.Fatal("finder cache not warm")
	}

	// The shared connection and the subscription's.
	const conns = 2
	if err := settled(client, store, conns); err != nil {
		t.Fatal(err)
	}
	gated.Store(true)
	for v := uint64(1); v <= 200; v++ {
		if _, err := store.ApplyCommitSet(ctx, memento.CommitSet{Writes: []memento.Memento{{
			Key: key("x"), Version: v, Fields: memento.Fields{"n": memento.Int(int64(v))},
		}}}); err != nil {
			t.Fatal(err)
		}
		if v == 1 {
			select {
			case <-parked:
			case <-time.After(3 * time.Second):
				t.Fatal("the notice consumer never read the clock")
			}
		}
	}
	// The one notice that overlaps the cached result set comes last,
	// long after the stream stopped having room for it.
	if _, err := store.ApplyCommitSet(ctx, memento.CommitSet{Creates: []memento.Memento{holding("h2", "u1")}}); err != nil {
		t.Fatal(err)
	}
	// Release the consumer once the stream is a buffer behind: it holds
	// the first notice and its 64-slot channel the next 64, so the 66th
	// has no room — delivered once the client counts a 67th push — or
	// the stream is already gone.
	waitFor(t, 3*time.Second, func() bool {
		return client.WireStats().Pushes > 66 || client.NumConns() < conns
	})
	release()

	waitFor(t, 3*time.Second, func() bool { return mgr.FinderCache().Len() == 0 })
	waitFor(t, 3*time.Second, func() bool { return mgr.Stats().Resubscribes >= 1 })
	dt2, err := mgr.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer dt2.Abort(ctx)
	got, err := dt2.Query(ctx, byAcct("u1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("finder after the overflow = %v, want h1 and h2", got)
	}
}

func currentVersion(t *testing.T, s *sqlstore.Store) uint64 {
	t.Helper()
	v, err := s.CurrentVersion(key("1"))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestCloseDuringResubscribeBackoff: closing the manager while it is in
// its retry loop (server still down) must not hang.
func TestCloseDuringResubscribeBackoff(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()

	srv := dbwire.NewServer(storeapi.Local(store))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	client := dbwire.Dial(srv.Addr())
	defer client.Close()
	mgr := NewManager(client)
	if err := mgr.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv.Close() // stream drops; manager enters retry loop

	done := make(chan struct{})
	go func() {
		mgr.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung during resubscription backoff")
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("condition not reached before deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
