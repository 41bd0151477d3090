package slicache

import (
	"context"
	"testing"
	"time"

	"edgeejb/internal/dbwire"
	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// TestReconnectRepeatedBackendRestart: the edge must survive the server
// behind it crashing and restarting REPEATEDLY — every round must clear
// the suspect cache, resubscribe, and deliver invalidations on the new
// stream. A single-restart test can pass on code that wedges its retry
// state after the first recovery; three rounds cannot.
func TestReconnectRepeatedBackendRestart(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	store.Seed(row("1", 1))
	ctx := context.Background()

	srv := dbwire.NewServer(storeapi.Local(store))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	client := dbwire.Dial(addr)
	defer client.Close()
	mgr := NewManager(client, WithShipping(WholeSet))
	defer mgr.Close()
	if err := mgr.Start(ctx); err != nil {
		t.Fatal(err)
	}

	warm := func() {
		t.Helper()
		dt, err := mgr.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dt.Load(ctx, key("1")); err != nil {
			t.Fatal(err)
		}
		if err := dt.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		if mgr.CommonStore().Len() != 1 {
			t.Fatal("cache not warm")
		}
	}
	warm()

	const restarts = 3
	for round := 1; round <= restarts; round++ {
		srv.Close()
		// The drop must clear the cache: notices may have been missed.
		waitFor(t, 3*time.Second, func() bool { return mgr.CommonStore().Len() == 0 })

		srv = dbwire.NewServer(storeapi.Local(store))
		if err := srv.Start(addr); err != nil {
			t.Fatalf("restart %d: %v", round, err)
		}
		waitFor(t, 5*time.Second, func() bool { return mgr.Stats().Resubscribes >= uint64(round) })

		// The new stream must deliver: re-warm, mutate externally, and
		// require the eviction. A stale entry surviving here means the
		// manager is trusting a dead subscription.
		warm()
		if _, err := store.ApplyCommitSet(ctx, memento.CommitSet{
			Writes: []memento.Memento{{
				Key:     key("1"),
				Version: currentVersion(t, store),
				Fields:  memento.Fields{"n": memento.Int(int64(100 + round))},
			}},
		}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 3*time.Second, func() bool {
			_, ok := mgr.CommonStore().Get(key("1"))
			return !ok
		})
	}
	srv.Close()
}
