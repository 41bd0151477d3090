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
// or absurd (the outage must not leak into the histograms).
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

	obsBefore := obs.Default.Snapshot()
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
		}
	}
	if !postRecovery {
		t.Error("post-recovery invalidation event not emitted")
	}

	diff := obs.Default.Diff(obsBefore)
	for _, name := range []string{"slicache.invalidation_latency", "slicache.staleness_window"} {
		h := diff.Histograms[name]
		if h.Max < 0 || h.Max > time.Minute {
			t.Errorf("%s max = %v across resubscribe", name, h.Max)
		}
	}
	if diff.Histograms["slicache.invalidation_latency"].Count == 0 {
		t.Error("invalidation latency histogram recorded nothing")
	}
}

// TestNoteNoticeClampsAndSkips unit-checks the notice bookkeeping edge
// cases: a clock-skewed commit time clamps to zero latency, and an
// unstamped (legacy) notice records no latency and no staleness window.
func TestNoteNoticeClampsAndSkips(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	mgr := NewManager(storeapi.Local(store))
	defer mgr.Close()
	now := time.Unix(1000, 0)
	mgr.SetClock(func() time.Time { return now })
	mgr.CommonStore().Put(row("1", 1))

	obsBefore := obs.Default.Snapshot()
	seqBefore := obs.DefaultEvents.Seq()

	// Committed "in the future" relative to this edge's clock: skew, not
	// time travel — the latency must clamp to zero, not go negative.
	mgr.noteNotice(sqlstore.Notice{
		Seq: 7, Writes: []memento.WriteDesc{{Key: key("1")}},
		CommittedAt: now.Add(3 * time.Second), OriginTrace: 42,
	})
	// Unstamped notice (no CommittedAt): applied, but no timing recorded.
	mgr.CommonStore().Put(row("1", 2))
	mgr.noteNotice(sqlstore.Notice{Seq: 8, Writes: []memento.WriteDesc{{Key: key("1")}}})

	events := obs.DefaultEvents.Since(seqBefore)
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	for _, e := range events {
		if e.Latency < 0 || e.Age < 0 {
			t.Errorf("negative timing: %+v", e)
		}
		if e.Evicted != 1 {
			t.Errorf("evicted = %d, want 1: %+v", e.Evicted, e)
		}
	}
	if events[1].Latency != 0 || events[1].Age != 0 {
		t.Errorf("unstamped notice recorded timing: %+v", events[1])
	}

	diff := obs.Default.Diff(obsBefore)
	if got := diff.Histograms["slicache.invalidation_latency"].Count; got != 1 {
		t.Errorf("latency observations = %d, want 1 (unstamped notice must not observe)", got)
	}
	// The skewed notice evicted entries, so it closes a (clamped) window;
	// the unstamped one must not.
	if got := diff.Histograms["slicache.staleness_window"].Count; got != 1 {
		t.Errorf("staleness observations = %d, want 1", got)
	}
	// The clamped observation lands in the zero-duration bucket. (Max is
	// not diffable, so the all-time max can't be asserted here.)
	if got := diff.Histograms["slicache.staleness_window"].Buckets[0]; got != 1 {
		t.Errorf("zero-bucket staleness observations = %d, want 1 (clamp failed)", got)
	}
}
