package backend

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"edgeejb/internal/dbwire"
	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

func key(id string) memento.Key { return memento.Key{Table: "t", ID: id} }

func row(id string, n int64, version uint64) memento.Memento {
	return memento.Memento{
		Key:     key(id),
		Version: version,
		Fields:  memento.Fields{"n": memento.Int(n)},
	}
}

// newStack builds dbserver <- backend <- edge client, all over real TCP.
func newStack(t *testing.T) (*sqlstore.Store, *Server, *dbwire.Client) {
	t.Helper()
	store := sqlstore.New()
	dbSrv := dbwire.NewServer(storeapi.Local(store))
	if err := dbSrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	dbClient := dbwire.Dial(dbSrv.Addr())
	t.Cleanup(func() {
		_ = dbClient.Close()
		dbSrv.Close()
		store.Close()
	})
	be, edge := startBackend(t, dbClient)
	return store, be, edge
}

// startBackend serves a back-end over db and dials an edge client to it.
func startBackend(t *testing.T, db storeapi.Conn) (*Server, *dbwire.Client) {
	t.Helper()
	be := NewServer(db)
	if err := be.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	edge := dbwire.Dial(be.Addr())
	t.Cleanup(func() {
		_ = edge.Close()
		be.Close()
	})
	return be, edge
}

func TestBackendServesCacheMisses(t *testing.T) {
	store, _, edge := newStack(t)
	store.Seed(row("1", 10, 0))
	ctx := context.Background()

	res, err := edge.AutoGet(ctx, "t", "1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.Fields["n"].Int != 10 || res.Mem.Version != 1 {
		t.Errorf("AutoGet = %v", res.Mem)
	}
	qres, err := edge.AutoQuery(ctx, memento.Query{Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if len(qres.Mems) != 1 {
		t.Errorf("AutoQuery rows = %d, want 1", len(qres.Mems))
	}
}

func TestBackendCommitIsOneEdgeRoundTrip(t *testing.T) {
	store, be, edge := newStack(t)
	store.Seed(row("1", 10, 0))
	ctx := context.Background()
	if err := edge.Ping(ctx); err != nil {
		t.Fatal(err)
	}

	before := edge.RoundTrips()
	res, err := edge.ApplyCommitSet(ctx, memento.CommitSet{
		Reads:   []memento.ReadProof{{Key: key("1"), Version: 1}},
		Creates: []memento.Memento{row("2", 5, 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := edge.RoundTrips() - before; got != 1 {
		t.Errorf("commit cost %d edge round trips, want exactly 1", got)
	}
	if res.Seq != 2 || res.NewVersions[key("2")] != res.Seq {
		t.Errorf("result = %+v, want the create at the commit's Seq 2 (the seed was 1)", res)
	}
	if be.CommitsApplied() != 1 {
		t.Errorf("CommitsApplied = %d, want 1", be.CommitsApplied())
	}
	if v, _ := store.CurrentVersion(key("2")); v != res.Seq {
		t.Error("create not applied at the database")
	}
}

func TestBackendRejectsConflicts(t *testing.T) {
	store, be, edge := newStack(t)
	store.Seed(row("1", 10, 0))
	ctx := context.Background()

	tests := []struct {
		name string
		cs   memento.CommitSet
	}{
		{"stale read", memento.CommitSet{
			Reads: []memento.ReadProof{{Key: key("1"), Version: 9}},
		}},
		{"stale write", memento.CommitSet{
			Writes: []memento.Memento{row("1", 11, 9)},
		}},
		{"create over existing", memento.CommitSet{
			Creates: []memento.Memento{row("1", 0, 0)},
		}},
		{"remove missing", memento.CommitSet{
			Removes: []memento.ReadProof{{Key: key("gone"), Version: 1}},
		}},
		{"remove never persisted", memento.CommitSet{
			Removes: []memento.ReadProof{{Key: key("1"), Version: 0}},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := edge.ApplyCommitSet(ctx, tt.cs); !errors.Is(err, sqlstore.ErrConflict) {
				t.Fatalf("got %v, want ErrConflict", err)
			}
		})
	}
	if be.CommitsRejected() != uint64(len(tests)) {
		t.Errorf("CommitsRejected = %d, want %d", be.CommitsRejected(), len(tests))
	}
	if v, _ := store.CurrentVersion(key("1")); v != 1 {
		t.Error("store changed by rejected commits")
	}
}

func TestBackendForwardsInvalidationStream(t *testing.T) {
	store, _, edge := newStack(t)
	store.Seed(row("1", 10, 0))
	ctx := context.Background()

	ch, cancel, err := edge.Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	res, err := edge.ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{row("1", 11, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-ch:
		if n.Seq != res.Seq || res.Seq == 0 {
			t.Errorf("notice Seq = %d, want the commit's %d (numbers must be stable across tiers)", n.Seq, res.Seq)
		}
		if len(n.Writes) != 1 || n.Writes[0].Key != key("1") {
			t.Errorf("notice writes = %v", n.Writes)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("invalidation not forwarded through the back-end")
	}
}

func TestBackendCommitIsOneDatabaseExchange(t *testing.T) {
	// A commit through the back-end is exactly one exchange with the
	// database.
	store := sqlstore.New()
	defer store.Close()
	store.Seed(row("a", 1, 0), row("b", 1, 0))
	counting := storeapi.NewCountingConn(storeapi.Local(store))
	_, edge := startBackend(t, counting)
	ctx := context.Background()

	if _, err := edge.ApplyCommitSet(ctx, memento.CommitSet{
		Reads:  []memento.ReadProof{{Key: key("a"), Version: 1}},
		Writes: []memento.Memento{row("b", 2, 1)},
	}); err != nil {
		t.Fatal(err)
	}
	if got := counting.Ops(); got != 1 {
		t.Errorf("a lone read+write set cost %d database exchanges, want 1", got)
	}
}

// parkingConn parks every apply whose set creates or writes key "slow"
// until release is closed, whether the set comes alone or among others.
type parkingConn struct {
	storeapi.Conn
	parked  chan struct{} // closed when the first slow set parks
	release chan struct{}
	once    sync.Once
}

func (p *parkingConn) park(sets ...memento.CommitSet) {
	slow := func(m memento.Memento) bool { return m.Key == key("slow") }
	for _, cs := range sets {
		if slices.ContainsFunc(cs.Creates, slow) || slices.ContainsFunc(cs.Writes, slow) {
			p.once.Do(func() { close(p.parked) })
			<-p.release
			return
		}
	}
}

func (p *parkingConn) ApplyCommitSet(ctx context.Context, cs memento.CommitSet) (sqlstore.ApplyResult, error) {
	p.park(cs)
	return p.Conn.ApplyCommitSet(ctx, cs)
}

func (p *parkingConn) ApplyCommitSets(ctx context.Context, sets []memento.CommitSet) ([]sqlstore.ApplySetResult, error) {
	p.park(sets...)
	return p.Conn.ApplyCommitSets(ctx, sets)
}

// TestBackendCommitsDoNotQueue: a set the database is slow to decide
// holds up no other. Edge A's set parks at the database; edge B's
// unrelated set must be answered while A's is still parked, and both
// apply once A's is released.
func TestBackendCommitsDoNotQueue(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	db := &parkingConn{Conn: storeapi.Local(store), parked: make(chan struct{}), release: make(chan struct{})}
	be, edgeA := startBackend(t, db)
	// Released before the back-end closes, which waits for its handlers,
	// however the test ends.
	release := sync.OnceFunc(func() { close(db.release) })
	t.Cleanup(release)
	edgeB := dbwire.Dial(be.Addr())
	defer edgeB.Close()
	ctx := context.Background()

	errA := make(chan error, 1)
	go func() {
		_, err := edgeA.ApplyCommitSet(ctx, memento.CommitSet{Creates: []memento.Memento{row("slow", 1, 0)}})
		errA <- err
	}()
	select {
	case <-db.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("edge A's set never reached the database")
	}

	bctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, err := edgeB.ApplyCommitSet(bctx, memento.CommitSet{Creates: []memento.Memento{row("b", 1, 0)}}); err != nil {
		t.Fatalf("edge B's set, behind A's parked one: %v", err)
	}
	select {
	case err := <-errA:
		t.Fatalf("edge A answered (%v) before its set was released", err)
	default:
	}

	release()
	if err := <-errA; err != nil {
		t.Fatalf("edge A's set: %v", err)
	}
	if got := be.CommitsApplied(); got != 2 {
		t.Errorf("CommitsApplied = %d, want 2", got)
	}
	for _, id := range []string{"slow", "b"} {
		if v, _ := store.CurrentVersion(key(id)); v == 0 {
			t.Errorf("%s not applied at the database", id)
		}
	}
}

func TestBackendCommitSurvivesDatabaseRestart(t *testing.T) {
	// The back-end's pooled connection goes stale when the database
	// server restarts under it; the next commit must ride the client's
	// retry onto a fresh connection and apply exactly once.
	store := sqlstore.New()
	defer store.Close()
	store.Seed(row("1", 10, 0))
	dbSrv := dbwire.NewServer(storeapi.Local(store))
	if err := dbSrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := dbSrv.Addr()
	dbClient := dbwire.Dial(addr)
	defer dbClient.Close()
	be, edge := startBackend(t, dbClient)
	ctx := context.Background()

	if _, err := edge.ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{row("1", 11, 1)},
	}); err != nil {
		t.Fatal(err)
	}

	dbSrv.Close()
	dbSrv = dbwire.NewServer(storeapi.Local(store))
	if err := dbSrv.Start(addr); err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer dbSrv.Close()

	res, err := edge.ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{row("1", 12, 2)},
	})
	if err != nil {
		t.Fatalf("commit after database restart: %v", err)
	}
	if res.Seq != 3 || res.NewVersions[key("1")] != res.Seq {
		t.Errorf("result = %+v, want row 1 at the third commit's Seq 3", res)
	}
	if v, _ := store.CurrentVersion(key("1")); v != 3 {
		t.Errorf("row 1 at version %d, want 3 (two commits, each applied once)", v)
	}
	if be.CommitsApplied() != 2 || be.CommitsRejected() != 0 {
		t.Errorf("counters applied=%d rejected=%d, want 2/0", be.CommitsApplied(), be.CommitsRejected())
	}
}

// hidesPreparer forwards the Conn surface only, hiding the wrapped
// handle's storeapi.Preparer.
type hidesPreparer struct{ storeapi.Conn }

func TestBackendRefusesPrepareWithoutPreparer(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	store.Seed(row("1", 10, 0))
	_, edge := startBackend(t, hidesPreparer{storeapi.Local(store)})
	ctx := context.Background()

	cs := memento.CommitSet{Writes: []memento.Memento{row("1", 11, 1)}}
	if err := edge.Prepare(ctx, "g1", cs); err == nil {
		t.Fatal("Prepare succeeded through a handle without prepare support, want a no vote")
	}
	if _, err := edge.CommitPrepared(ctx, "g1"); err == nil {
		t.Error("CommitPrepared succeeded through a handle without prepare support")
	}
	if err := edge.AbortPrepared(ctx, "g1"); err == nil {
		t.Error("AbortPrepared succeeded through a handle without prepare support")
	}
	if v, _ := store.CurrentVersion(key("1")); v != 1 {
		t.Errorf("row 1 at version %d, want 1 (nothing prepared, nothing applied)", v)
	}
	// The one-shot path is unaffected.
	if _, err := edge.ApplyCommitSet(ctx, cs); err != nil {
		t.Fatal(err)
	}
}
