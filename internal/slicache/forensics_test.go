package slicache

import (
	"context"
	"testing"
	"time"

	"edgeejb/internal/dbwire"
	"edgeejb/internal/memento"
	"edgeejb/internal/obs"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// TestNoticePipelineAcrossResubscribe drives the invalidation→event
// pipeline through a stream outage: the manager clears its cache, misses
// commits, resubscribes, and then receives fresh notices. No staleness
// window or push latency recorded across that sequence may be negative
// or absurd (the outage must not leak into the events), and the fresh
// notice carries its push latency as the window it closed.
func TestNoticePipelineAcrossResubscribe(t *testing.T) {
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

	// Warm the cache.
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

	seqBefore := obs.DefaultEvents.Seq()

	// Kill the stream: the manager clears its cache.
	srv.Close()
	waitFor(t, 3*time.Second, func() bool { return mgr.CommonStore().Len() == 0 })

	// A commit lands while the edge is deaf; its notice is lost.
	if _, err := store.ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{{Key: key("1"), Version: currentVersion(t, store), Fields: memento.Fields{"n": memento.Int(50)}}},
	}); err != nil {
		t.Fatal(err)
	}

	// Restart; the manager resubscribes.
	srv2 := dbwire.NewServer(storeapi.Local(store))
	if err := srv2.Start(addr); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	waitFor(t, 5*time.Second, func() bool { return mgr.Stats().Resubscribes >= 1 })

	// Re-warm, then push one post-recovery notice through.
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
	noticeCtx, noticeTrace := obs.WithNewTrace(ctx)
	if _, err := store.ApplyCommitSet(noticeCtx, memento.CommitSet{
		Writes: []memento.Memento{{Key: key("1"), Version: currentVersion(t, store), Fields: memento.Fields{"n": memento.Int(99)}}},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool {
		_, ok := mgr.CommonStore().Get(key("1"))
		return !ok
	})

	events := obs.DefaultEvents.Since(seqBefore)
	var postRecovery bool
	for _, e := range events {
		if e.Type != obs.EventInvalidation {
			continue
		}
		if e.Latency < 0 || e.Latency > time.Minute || e.Age < 0 || e.Age > time.Minute {
			t.Errorf("absurd invalidation timing across resubscribe: %+v", e)
		}
		if e.OtherTrace == noticeTrace {
			postRecovery = true
			if e.Evicted < 1 {
				t.Errorf("post-recovery notice evicted %d entries, want >= 1", e.Evicted)
			}
			// The store stamps every commit, so the notice has a push
			// latency, and its eviction closed a window that long.
			if e.Latency <= 0 || e.Age != e.Latency {
				t.Errorf("post-recovery notice latency %v, window %v: want the same positive duration", e.Latency, e.Age)
			}
		}
	}
	if !postRecovery {
		t.Error("post-recovery invalidation event not emitted")
	}
}

// TestNoteNoticeClampsAndSkips unit-checks the timing on a notice's
// invalidation event: a clock-skewed commit time clamps to zero latency,
// an unstamped (legacy) notice has no latency, and only a notice that
// evicted something closes a staleness window (Age).
func TestNoteNoticeClampsAndSkips(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	mgr := NewManager(storeapi.Local(store))
	defer mgr.Close()
	now := time.Unix(1000, 0)
	mgr.SetClock(func() time.Time { return now })
	const lag = 2 * time.Millisecond

	seqBefore := obs.DefaultEvents.Seq()
	for _, n := range []struct {
		cached      bool
		committedAt time.Time
	}{
		// Committed "in the future" relative to this edge's clock: skew,
		// not time travel — the latency must clamp to zero.
		{cached: true, committedAt: now.Add(3 * time.Second)},
		// Unstamped notice (no CommittedAt): applied, but untimed.
		{cached: true},
		// Stamped and evicting: the latency is the window it closed.
		{cached: true, committedAt: now.Add(-lag)},
		// Stamped but nothing cached: a latency and no window.
		{committedAt: now.Add(-lag)},
	} {
		if n.cached {
			mgr.CommonStore().Put(row("1", 1))
		}
		mgr.noteNotice(sqlstore.Notice{
			Seq: 7, Writes: []memento.WriteDesc{{Key: key("1")}},
			CommittedAt: n.committedAt, OriginTrace: 42,
		})
	}

	events := obs.DefaultEvents.Since(seqBefore)
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}
	want := []struct {
		evicted      int
		latency, age time.Duration
	}{
		{evicted: 1},
		{evicted: 1},
		{evicted: 1, latency: lag, age: lag},
		{evicted: 0, latency: lag},
	}
	for i, e := range events {
		if e.Type != obs.EventInvalidation {
			t.Fatalf("event %d is a %s, want an invalidation", i, e.Type)
		}
		if e.Evicted != want[i].evicted || e.Latency != want[i].latency || e.Age != want[i].age {
			t.Errorf("notice %d: evicted %d, latency %v, window %v; want %d, %v, %v",
				i, e.Evicted, e.Latency, e.Age, want[i].evicted, want[i].latency, want[i].age)
		}
	}
}
