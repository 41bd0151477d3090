package backend

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// gatedConn delays the first grouped apply after arm until released —
// it parks the group leader inside its own exchange so a test can pile
// followers into the queue deterministically — and counts grouped
// exchanges with the database tier.
type gatedConn struct {
	storeapi.Conn
	mu         sync.Mutex
	armed      bool
	entered    chan struct{}
	release    chan struct{}
	groupCalls atomic.Int32
}

func newGatedConn(conn storeapi.Conn) *gatedConn { return &gatedConn{Conn: conn} }

// arm makes the next ApplyCommitSets close entered and wait for release.
func (g *gatedConn) arm() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.armed = true
	g.entered = make(chan struct{})
	g.release = make(chan struct{})
}

func (g *gatedConn) ApplyCommitSets(ctx context.Context, sets []memento.CommitSet) ([]sqlstore.ApplySetResult, error) {
	g.groupCalls.Add(1)
	g.mu.Lock()
	first := g.armed
	g.armed = false
	g.mu.Unlock()
	if first {
		close(g.entered)
		<-g.release
	}
	return g.Conn.ApplyCommitSets(ctx, sets)
}

// waitQueue blocks until n commit sets are queued behind the leader.
func waitQueue(t *testing.T, l *logic, n int) {
	t.Helper()
	queued := func() int {
		l.gmu.Lock()
		defer l.gmu.Unlock()
		return len(l.queue)
	}
	deadline := time.Now().Add(5 * time.Second)
	for queued() != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d entries (at %d)", n, queued())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCommitCoalescesWithAttribution drives three concurrent
// commits through the coalescer: the leader parks inside its own
// apply, two more sets queue behind it, and the drained batch must go
// to the database as ONE grouped exchange. Inside that batch the two
// sets race for the same row — the loser's error must be an attributed
// *sqlstore.ConflictError naming the intra-batch winner's transaction,
// exactly as if the sets had arrived serially.
func TestGroupCommitCoalescesWithAttribution(t *testing.T) {
	store := sqlstore.New()
	t.Cleanup(store.Close)
	store.Seed(row("1", 10, 0)) // seeded at version 1
	g := newGatedConn(storeapi.Local(store))
	g.arm()
	be := NewServer(g)
	l := be.logic
	ctx := context.Background()

	type outcome struct {
		res sqlstore.ApplyResult
		err error
	}
	apply := func(cs memento.CommitSet) chan outcome {
		ch := make(chan outcome, 1)
		go func() {
			res, err := l.ApplyCommitSet(ctx, cs)
			ch <- outcome{res, err}
		}()
		return ch
	}
	// Leader: an independent create; it parks at the gated exchange.
	chA := apply(memento.CommitSet{Creates: []memento.Memento{row("a", 1, 0)}})
	<-g.entered

	// Followers B then C, both claiming row 1 at version 1. B enters
	// the queue first, so B wins and C must lose to B.
	chB := apply(memento.CommitSet{Writes: []memento.Memento{row("1", 11, 1)}})
	waitQueue(t, l, 1)
	chC := apply(memento.CommitSet{Writes: []memento.Memento{row("1", 12, 1)}})
	waitQueue(t, l, 2)

	close(g.release)
	a, b, c := <-chA, <-chB, <-chC

	if a.err != nil {
		t.Fatalf("leader set failed: %v", a.err)
	}
	if b.err != nil {
		t.Fatalf("winner set failed: %v", b.err)
	}
	if b.res.Seq == 0 || b.res.NewVersions[key("1")] != b.res.Seq {
		t.Errorf("winner result = %+v, want row 1 at the winner's Seq", b.res)
	}
	var ce *sqlstore.ConflictError
	if !errors.As(c.err, &ce) {
		t.Fatalf("loser error = %v, want *sqlstore.ConflictError", c.err)
	}
	if ce.Actual != b.res.Seq {
		t.Errorf("loser found v%d, want the intra-batch winner's Seq %d", ce.Actual, b.res.Seq)
	}
	if ce.Key != key("1") || ce.Expected != 1 {
		t.Errorf("conflict detail = %+v", ce)
	}

	if got := g.groupCalls.Load(); got != 2 {
		t.Errorf("database saw %d exchanges, want exactly 2 (the leader's own set, then the coalesced batch)", got)
	}
	if be.CommitsApplied() != 2 || be.CommitsRejected() != 1 {
		t.Errorf("counters applied=%d rejected=%d, want 2/1",
			be.CommitsApplied(), be.CommitsRejected())
	}

	// Row state must reflect the winner, not the loser.
	res, err := storeapi.Local(store).AutoGet(ctx, "t", "1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.Fields["n"].Int != 11 || res.Mem.Version != b.res.Seq {
		t.Errorf("row 1 = %v, want the winner's write at its Seq %d", res.Mem, b.res.Seq)
	}
}
