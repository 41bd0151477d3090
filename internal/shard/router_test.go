package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

func rmem(id string, version uint64, v int64) memento.Memento {
	return memento.Memento{
		Key:     memento.Key{Table: "t", ID: id},
		Version: version,
		Fields:  memento.Fields{"v": memento.Int(v)},
	}
}

// rig is a router over n in-process stores, each numbering its own
// commits, exactly as the sharded harness wires it.
type rig struct {
	ring   *Ring
	stores []*sqlstore.Store
	router *Router
}

func newRig(t *testing.T, n int, ringOpts []RingOption, routerOpts []RouterOption, storeOpts ...sqlstore.Option) *rig {
	t.Helper()
	ring := NewRing(n, ringOpts...)
	stores := make([]*sqlstore.Store, n)
	conns := make([]storeapi.Conn, n)
	for i := range stores {
		stores[i] = sqlstore.New(storeOpts...)
		conns[i] = storeapi.Local(stores[i])
	}
	t.Cleanup(func() {
		for _, s := range stores {
			s.Close()
		}
	})
	router, err := NewRouter(ring, conns, routerOpts...)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{ring: ring, stores: stores, router: router}
}

// seed installs a row in its owning shard's store and returns the owner.
func (r *rig) seed(m memento.Memento) int {
	s := r.ring.Of(m.Key)
	r.stores[s].Seed(m)
	return s
}

// idOnShard finds a key the ring places on the wanted shard.
func (r *rig) idOnShard(t *testing.T, want int, prefix string) string {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		id := fmt.Sprintf("%s%d", prefix, i)
		if r.ring.Of(memento.Key{Table: "t", ID: id}) == want {
			return id
		}
	}
	t.Fatalf("no id found on shard %d", want)
	return ""
}

func TestRouterAutoGetRoutes(t *testing.T) {
	r := newRig(t, 3, nil, nil)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		id := r.idOnShard(t, i, "row")
		r.seed(rmem(id, 0, int64(i)))
		got, err := r.router.AutoGet(ctx, "t", id)
		if err != nil {
			t.Fatalf("AutoGet(%s): %v", id, err)
		}
		if got.Mem.Fields["v"].Int != int64(i) {
			t.Errorf("AutoGet(%s) = %v, want v=%d", id, got.Mem.Fields, i)
		}
	}
	// The row exists only on its owner: a misroute would be ErrNotFound.
}

func TestRouterFastPathSingleShard(t *testing.T) {
	r := newRig(t, 3, nil, nil)
	ctx := context.Background()
	id := r.idOnShard(t, 1, "w")
	r.seed(rmem(id, 0, 1))

	res, err := r.router.ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{rmem(id, 1, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The owner's seed was its commit 1; the fast path is its 2.
	if res.Seq != 2 {
		t.Errorf("Seq = %d, want the owner's second commit", res.Seq)
	}
	if v, _ := r.stores[1].CurrentVersion(memento.Key{Table: "t", ID: id}); v != res.Seq {
		t.Errorf("owner version = %d, want %d", v, res.Seq)
	}
	// No prepared state anywhere: this was not 2PC.
	for i, s := range r.stores {
		if n := s.PreparedCount(); n != 0 {
			t.Errorf("shard %d holds %d prepared txs after fast path", i, n)
		}
	}
}

func TestRouterTwoPhaseCommit(t *testing.T) {
	r := newRig(t, 2, nil, nil)
	ctx := context.Background()
	idA := r.idOnShard(t, 0, "a")
	idB := r.idOnShard(t, 1, "b")
	r.seed(rmem(idA, 0, 1))
	r.seed(rmem(idB, 0, 1))

	res, err := r.router.ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{rmem(idA, 1, 2), rmem(idB, 1, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{idA, idB} {
		if v, _ := r.stores[i].CurrentVersion(memento.Key{Table: "t", ID: id}); v != 2 {
			t.Errorf("shard %d version = %d, want 2", i, v)
		}
	}
	// Each shard's seed was its commit 1 and the 2PC its 2; the merged
	// result has no one Seq, and each key carries its shard's.
	if res.Seq != 0 || res.NewVersions[memento.Key{Table: "t", ID: idA}] != 2 ||
		res.NewVersions[memento.Key{Table: "t", ID: idB}] != 2 {
		t.Errorf("merged result = %+v", res)
	}
}

// TestRouterTwoPhaseConflictAborts proves one participant's no vote
// aborts the whole write set — the other shard's rows stay untouched —
// and that the surfaced error carries the cross-shard winner's
// attribution: its key, placed on shard 1, and its version, the commit
// number shard 1 gave it.
func TestRouterTwoPhaseConflictAborts(t *testing.T) {
	r := newRig(t, 2, nil, nil)
	ctx := context.Background()
	idA := r.idOnShard(t, 0, "a")
	idB := r.idOnShard(t, 1, "b")
	r.seed(rmem(idA, 0, 1))
	r.seed(rmem(idB, 0, 1))

	// A winner commits on shard 1 first, moving idB to version 2.
	win, err := r.stores[1].ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{rmem(idB, 1, 99)},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The loser's cross-shard set still carries idB@1: shard 1 votes no.
	_, err = r.router.ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{rmem(idA, 1, 2), rmem(idB, 1, 2)},
	})
	if !errors.Is(err, sqlstore.ErrConflict) {
		t.Fatalf("got %v, want ErrConflict", err)
	}
	var ce *sqlstore.ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("conflict lost its attribution crossing the router: %v", err)
	}
	if r.ring.Of(ce.Key) != 1 || ce.Actual != win.Seq {
		t.Errorf("conflict on %s (shard %d) at v%d, want shard 1's winner at v%d", ce.Key, r.ring.Of(ce.Key), ce.Actual, win.Seq)
	}
	// Shard 0 prepared yes but must have aborted: idA unchanged, no
	// prepared residue, and a retry at the current versions succeeds.
	if v, _ := r.stores[0].CurrentVersion(memento.Key{Table: "t", ID: idA}); v != 1 {
		t.Errorf("shard 0 version = %d after abort, want 1", v)
	}
	for i, s := range r.stores {
		if n := s.PreparedCount(); n != 0 {
			t.Errorf("shard %d holds %d prepared txs after abort", i, n)
		}
	}
	if _, err := r.router.ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{rmem(idA, 1, 2), rmem(idB, 2, 3)},
	}); err != nil {
		t.Fatalf("retry after abort: %v", err)
	}
}

// lostPrepareReply is a participant whose Prepare applies and whose
// reply is then lost, as to a transport error after the store answered:
// it holds the prepared transaction while the coordinator sees a no
// vote.
type lostPrepareReply struct {
	storeapi.Conn
	storeapi.Preparer
}

func (c lostPrepareReply) Prepare(ctx context.Context, gid string, cs memento.CommitSet) error {
	if err := c.Preparer.Prepare(ctx, gid, cs); err != nil {
		return err
	}
	return errors.New("connection reset after prepare")
}

// TestRouterVetoAbortsLostPrepare: a participant whose prepare reply was
// lost may hold a prepared entry, so a veto aborts it too. Right after
// the router returns, neither shard holds a prepared transaction, and a
// set writing the lost participant's row takes its lock at once rather
// than waiting out the presumed-abort TTL.
func TestRouterVetoAbortsLostPrepare(t *testing.T) {
	ring := NewRing(2)
	stores := []*sqlstore.Store{sqlstore.New(), sqlstore.New()}
	for _, s := range stores {
		t.Cleanup(s.Close)
	}
	local1 := storeapi.Local(stores[1])
	conns := []storeapi.Conn{storeapi.Local(stores[0]), lostPrepareReply{Conn: local1, Preparer: local1.(storeapi.Preparer)}}
	router, err := NewRouter(ring, conns)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{ring: ring, stores: stores, router: router}
	ctx := context.Background()
	idA := r.idOnShard(t, 0, "a")
	idB := r.idOnShard(t, 1, "b")
	r.seed(rmem(idA, 0, 1))
	r.seed(rmem(idB, 0, 1))

	if _, err := router.ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{rmem(idA, 1, 2), rmem(idB, 1, 2)},
	}); err == nil {
		t.Fatal("a lost prepare reply did not veto the set")
	}
	for i, s := range stores {
		if n := s.PreparedCount(); n != 0 {
			t.Errorf("shard %d holds %d prepared txs after the veto", i, n)
		}
	}
	actx, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
	defer cancel()
	if _, err := stores[1].ApplyCommitSet(actx, memento.CommitSet{
		Writes: []memento.Memento{rmem(idB, 1, 3)},
	}); err != nil {
		t.Fatalf("writing shard 1's row after the veto: %v", err)
	}
}

func TestRouterReadOnlyCrossShardSkipsTwoPhase(t *testing.T) {
	r := newRig(t, 2, nil, nil)
	ctx := context.Background()
	idA := r.idOnShard(t, 0, "a")
	idB := r.idOnShard(t, 1, "b")
	r.seed(rmem(idA, 0, 1))
	r.seed(rmem(idB, 0, 1))

	if _, err := r.router.ApplyCommitSet(ctx, memento.CommitSet{
		Reads: []memento.ReadProof{
			{Key: memento.Key{Table: "t", ID: idA}, Version: 1},
			{Key: memento.Key{Table: "t", ID: idB}, Version: 1},
		},
	}); err != nil {
		t.Fatal(err)
	}
	// A stale proof on either shard still fails the whole set.
	if _, err := r.router.ApplyCommitSet(ctx, memento.CommitSet{
		Reads: []memento.ReadProof{
			{Key: memento.Key{Table: "t", ID: idA}, Version: 1},
			{Key: memento.Key{Table: "t", ID: idB}, Version: 7},
		},
	}); !errors.Is(err, sqlstore.ErrConflict) {
		t.Fatalf("stale cross-shard read: got %v, want ErrConflict", err)
	}
}

func TestRouterScatterQueryMerges(t *testing.T) {
	r := newRig(t, 3, nil, nil)
	ctx := context.Background()
	// Ten rows spread over the shards by the default placement.
	owners := make(map[int]bool)
	for i := 0; i < 10; i++ {
		owners[r.seed(rmem(fmt.Sprintf("q%d", i), 0, int64(i)))] = true
	}
	if len(owners) != 3 {
		t.Fatalf("rows landed on %d shards, want all 3", len(owners))
	}
	res, err := r.router.AutoQuery(ctx, memento.Query{Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 3 {
		t.Errorf("Accesses = %d, want one read per shard", res.Accesses)
	}
	if len(res.Mems) != 10 {
		t.Fatalf("got %d rows, want all 10", len(res.Mems))
	}
	// One key order despite per-shard partials.
	for i, m := range res.Mems {
		if want := fmt.Sprintf("q%d", i); m.Key.ID != want {
			t.Errorf("row %d = %s, want %s", i, m.Key.ID, want)
		}
	}
}

func TestRouterQueryAffinityPins(t *testing.T) {
	// Affinity pins every "t" query to the placement "pin". Rows on other
	// shards must not be consulted.
	aff := func(q memento.Query) (string, bool) { return "pin", true }
	r := newRig(t, 3, nil, []RouterOption{WithQueryAffinity(aff)})
	ctx := context.Background()
	pinned := r.ring.OfPlacement("pin")
	r.stores[pinned].Seed(rmem("on-pin", 0, 1))
	r.stores[(pinned+1)%3].Seed(rmem("elsewhere", 0, 2))

	res, err := r.router.AutoQuery(ctx, memento.Query{Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mems) != 1 || res.Mems[0].Key.ID != "on-pin" {
		t.Fatalf("pinned query returned %v, want just on-pin", res.Mems)
	}
}

func TestRouterSubscribeMergesAllShards(t *testing.T) {
	r := newRig(t, 2, nil, nil)
	ctx := context.Background()
	ch, cancel, err := r.router.Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	idA := r.idOnShard(t, 0, "a")
	idB := r.idOnShard(t, 1, "b")
	for i, id := range []string{idA, idB} {
		if _, err := r.stores[i].ApplyCommitSet(ctx, memento.CommitSet{
			Creates: []memento.Memento{rmem(id, 0, 1)},
		}); err != nil {
			t.Fatal(err)
		}
	}

	want := map[uint64]bool{0: true, 1: true}
	deadline := time.After(5 * time.Second)
	for len(want) > 0 {
		select {
		case n, ok := <-ch:
			if !ok {
				t.Fatal("merged stream closed early")
			}
			for _, w := range n.Writes {
				delete(want, uint64(r.ring.Of(w.Key)))
			}
		case <-deadline:
			t.Fatalf("missing notices from shards %v", want)
		}
	}
}

// TestRouterTxnStaysSingleShard: no statement-level transaction can
// span shards because the router opens none — the sharded tier takes
// whole commit sets, which the decision rule routes.
func TestRouterTxnStaysSingleShard(t *testing.T) {
	r := newRig(t, 2, nil, nil)
	txn, err := r.router.Begin(context.Background())
	if !errors.Is(err, ErrCommitSetsOnly) || txn != nil {
		t.Fatalf("Begin = %v, %v; want nil, ErrCommitSetsOnly", txn, err)
	}
}

func TestRouterRejectsMismatchedConns(t *testing.T) {
	s := sqlstore.New()
	defer s.Close()
	_, err := NewRouter(NewRing(2), []storeapi.Conn{storeapi.Local(s)})
	if err == nil {
		t.Fatal("router accepted 1 conn for 2 shards")
	}
}

// TestRouterCommitsKeepTheirOrigin: the origin a commit set names
// reaches every participant, on the fast path and through both phases
// of 2PC, so no shard sends the committing edge its own notice while
// every other subscriber hears each shard's.
func TestRouterCommitsKeepTheirOrigin(t *testing.T) {
	r := newRig(t, 2, nil, nil)
	ctx := context.Background()
	idA := r.idOnShard(t, 0, "a")
	idB := r.idOnShard(t, 1, "b")
	r.seed(rmem(idA, 0, 1))
	r.seed(rmem(idB, 0, 1))
	const origin = 7
	own, cancelOwn, err := r.router.Subscribe(sqlstore.OriginContext(ctx, origin))
	if err != nil {
		t.Fatal(err)
	}
	defer cancelOwn()
	other, cancelOther, err := r.router.Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cancelOther()

	for _, cs := range []memento.CommitSet{
		{Writes: []memento.Memento{rmem(idA, 1, 2)}, Origin: origin},
		{Writes: []memento.Memento{rmem(idA, 2, 3), rmem(idB, 1, 3)}, Origin: origin},
	} {
		if _, err := r.router.ApplyCommitSet(ctx, cs); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case <-other:
		case <-time.After(5 * time.Second):
			t.Fatalf("other subscriber got %d notices, want 3", i)
		}
	}
	select {
	case n := <-own:
		t.Fatalf("committing origin was sent its own notice %+v", n)
	case <-time.After(50 * time.Millisecond):
	}
}
