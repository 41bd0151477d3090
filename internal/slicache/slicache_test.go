package slicache

import (
	"context"
	"errors"
	"testing"

	"edgeejb/internal/component"
	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

func key(id string) memento.Key { return memento.Key{Table: "t", ID: id} }

func row(id string, n int64) memento.Memento {
	return memento.Memento{
		Key:    key(id),
		Fields: memento.Fields{"n": memento.Int(n)},
	}
}

func holding(id, acct string) memento.Memento {
	return memento.Memento{
		Key:    memento.Key{Table: "t", ID: id},
		Fields: memento.Fields{"acct": memento.String(acct)},
	}
}

func byAcct(acct string) memento.Query {
	return memento.Query{
		Table: "t",
		Where: []memento.Predicate{memento.Where("acct", memento.String(acct))},
	}
}

// env bundles a store, a counting handle, and a manager.
type env struct {
	store *sqlstore.Store
	conn  *storeapi.CountingConn
	mgr   *Manager
}

func newEnv(t *testing.T, opts ...ManagerOption) *env {
	t.Helper()
	store := sqlstore.New()
	t.Cleanup(store.Close)
	conn := storeapi.NewCountingConn(storeapi.Local(store))
	mgr := NewManager(conn, opts...)
	t.Cleanup(mgr.Close)
	return &env{store: store, conn: conn, mgr: mgr}
}

func (e *env) begin(t *testing.T) component.DataTx {
	t.Helper()
	dt, err := e.mgr.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return dt
}

func TestLoadMissPopulatesCommonStore(t *testing.T) {
	e := newEnv(t)
	e.store.Seed(row("1", 10))
	ctx := context.Background()

	dt := e.begin(t)
	m, err := dt.Load(ctx, key("1"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Fields["n"].Int != 10 || m.Version != 1 {
		t.Errorf("loaded %v", m)
	}
	if _, ok := e.mgr.CommonStore().Get(key("1")); !ok {
		t.Error("miss did not populate the common store")
	}
	if err := dt.Abort(ctx); err != nil {
		t.Fatal(err)
	}

	// A subsequent transaction hits the common store: no fetch.
	before := e.conn.Ops()
	dt2 := e.begin(t)
	if _, err := dt2.Load(ctx, key("1")); err != nil {
		t.Fatal(err)
	}
	if got := e.conn.Ops() - before; got != 0 {
		t.Errorf("cached load cost %d statements, want 0", got)
	}
	_ = dt2.Abort(ctx)
}

func TestLoadNotFound(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	dt := e.begin(t)
	defer dt.Abort(ctx)
	if _, err := dt.Load(ctx, key("nope")); !errors.Is(err, sqlstore.ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
}

func TestRepeatableReadWithinTransaction(t *testing.T) {
	e := newEnv(t)
	e.store.Seed(row("1", 10))
	ctx := context.Background()

	dt := e.begin(t)
	defer dt.Abort(ctx)
	if _, err := dt.Load(ctx, key("1")); err != nil {
		t.Fatal(err)
	}
	// Another transaction commits a new value behind our back.
	if _, err := e.store.ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{{Key: key("1"), Version: 1, Fields: memento.Fields{"n": memento.Int(99)}}},
	}); err != nil {
		t.Fatal(err)
	}
	// Our transaction must still see its before-image.
	m, err := dt.Load(ctx, key("1"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Fields["n"].Int != 10 {
		t.Errorf("repeatable read violated: n = %d", m.Fields["n"].Int)
	}
}

func TestTransactionSeesOwnWrites(t *testing.T) {
	e := newEnv(t)
	e.store.Seed(row("1", 10))
	ctx := context.Background()

	dt := e.begin(t)
	defer dt.Abort(ctx)
	m, err := dt.Load(ctx, key("1"))
	if err != nil {
		t.Fatal(err)
	}
	m.Fields["n"] = memento.Int(20)
	if err := dt.Store(ctx, m); err != nil {
		t.Fatal(err)
	}
	got, err := dt.Load(ctx, key("1"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Fields["n"].Int != 20 {
		t.Errorf("own write invisible: n = %d", got.Fields["n"].Int)
	}
	// The common store must NOT see uncommitted state.
	if cached, ok := e.mgr.CommonStore().Get(key("1")); ok && cached.Fields["n"].Int != 10 {
		t.Error("uncommitted write leaked into common store")
	}
}

func TestStoreWithoutLoadFails(t *testing.T) {
	e := newEnv(t)
	e.store.Seed(row("1", 10))
	ctx := context.Background()
	dt := e.begin(t)
	defer dt.Abort(ctx)
	if err := dt.Store(ctx, row("1", 20)); !errors.Is(err, sqlstore.ErrNotFound) {
		t.Fatalf("got %v, want not-found (bean not active)", err)
	}
}

func TestCommitWriteRefreshesCommonStore(t *testing.T) {
	e := newEnv(t)
	e.store.Seed(row("1", 10))
	ctx := context.Background()

	dt := e.begin(t)
	m, err := dt.Load(ctx, key("1"))
	if err != nil {
		t.Fatal(err)
	}
	m.Fields["n"] = memento.Int(11)
	if err := dt.Store(ctx, m); err != nil {
		t.Fatal(err)
	}
	if err := dt.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if v, _ := e.store.CurrentVersion(key("1")); v != 2 {
		t.Fatalf("store version = %d, want 2", v)
	}
	cached, ok := e.mgr.CommonStore().Get(key("1"))
	if !ok {
		t.Fatal("entry evicted after own commit")
	}
	if cached.Version != 2 || cached.Fields["n"].Int != 11 {
		t.Errorf("common store stale after commit: %v", cached)
	}
}

func TestCommitConflictAbortsAndInvalidates(t *testing.T) {
	e := newEnv(t)
	e.store.Seed(row("1", 10))
	ctx := context.Background()

	dt := e.begin(t)
	m, err := dt.Load(ctx, key("1"))
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent writer wins.
	if _, err := e.store.ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{{Key: key("1"), Version: 1, Fields: memento.Fields{"n": memento.Int(50)}}},
	}); err != nil {
		t.Fatal(err)
	}
	m.Fields["n"] = memento.Int(11)
	if err := dt.Store(ctx, m); err != nil {
		t.Fatal(err)
	}
	if err := dt.Commit(ctx); !errors.Is(err, sqlstore.ErrConflict) {
		t.Fatalf("got %v, want ErrConflict", err)
	}
	// Store unchanged by the failed commit; cache entry evicted.
	v, _ := e.store.CurrentVersion(key("1"))
	if v != 2 {
		t.Errorf("store version = %d, want 2 (winner only)", v)
	}
	if _, ok := e.mgr.CommonStore().Get(key("1")); ok {
		t.Error("stale entry survived the conflict")
	}
	if e.mgr.Stats().Conflicts != 1 {
		t.Errorf("conflicts = %d, want 1", e.mgr.Stats().Conflicts)
	}
}

func TestReadSetValidatedAtCommit(t *testing.T) {
	e := newEnv(t)
	e.store.Seed(row("r", 1), row("w", 1))
	ctx := context.Background()

	dt := e.begin(t)
	if _, err := dt.Load(ctx, key("r")); err != nil {
		t.Fatal(err)
	}
	m, err := dt.Load(ctx, key("w"))
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent update of the READ (not written) bean.
	if _, err := e.store.ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{{Key: key("r"), Version: 1, Fields: memento.Fields{"n": memento.Int(9)}}},
	}); err != nil {
		t.Fatal(err)
	}
	m.Fields["n"] = memento.Int(2)
	if err := dt.Store(ctx, m); err != nil {
		t.Fatal(err)
	}
	// The paper's isolation: "comparing the before-image of every bean
	// accessed in the transaction" — the stale read must abort us.
	if err := dt.Commit(ctx); !errors.Is(err, sqlstore.ErrConflict) {
		t.Fatalf("stale read not detected: %v", err)
	}
}

func TestCreateCommitAndConflict(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()

	dt := e.begin(t)
	if err := dt.Create(ctx, row("new", 5)); err != nil {
		t.Fatal(err)
	}
	// Created bean visible to its own transaction.
	m, err := dt.Load(ctx, key("new"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Fields["n"].Int != 5 {
		t.Errorf("created bean n = %d", m.Fields["n"].Int)
	}
	if err := dt.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if v, _ := e.store.CurrentVersion(key("new")); v != 1 {
		t.Errorf("created version = %d, want 1", v)
	}

	// Creating the same key again must fail fast (cached as existing).
	dt2 := e.begin(t)
	defer dt2.Abort(ctx)
	if err := dt2.Create(ctx, row("new", 6)); !errors.Is(err, sqlstore.ErrExists) {
		t.Fatalf("got %v, want ErrExists", err)
	}
}

// TestCreateCountsNoCacheLookup: a create asks the common store only
// whether its key is cached, so it moves neither the hit nor the miss
// count, whether the key is absent or cached.
func TestCreateCountsNoCacheLookup(t *testing.T) {
	e := newEnv(t)
	e.store.Seed(row("1", 10))
	ctx := context.Background()

	dt := e.begin(t)
	if err := dt.Create(ctx, row("new", 5)); err != nil {
		t.Fatal(err)
	}
	_ = dt.Abort(ctx)
	if st := e.mgr.Stats().Cache; st.Hits != 0 || st.Misses != 0 {
		t.Errorf("create on an empty cache counted %d hits, %d misses; want none", st.Hits, st.Misses)
	}

	dt = e.begin(t)
	if _, err := dt.Load(ctx, key("1")); err != nil {
		t.Fatal(err)
	}
	_ = dt.Abort(ctx)
	before := e.mgr.Stats().Cache
	dt = e.begin(t)
	defer dt.Abort(ctx)
	if err := dt.Create(ctx, row("1", 11)); !errors.Is(err, sqlstore.ErrExists) {
		t.Fatalf("create over a cached key: got %v, want ErrExists", err)
	}
	if after := e.mgr.Stats().Cache; after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("create over a cached key moved hits %d→%d, misses %d→%d; want unchanged",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}
}

func TestCreateRaceDetectedAtCommit(t *testing.T) {
	// Two managers (two edge servers) create the same key; the second
	// commit must fail: "the system must also verify that no EJB with
	// the same key exists at commit time".
	store := sqlstore.New()
	defer store.Close()
	ctx := context.Background()
	mgrA := NewManager(storeapi.Local(store))
	defer mgrA.Close()
	mgrB := NewManager(storeapi.Local(store))
	defer mgrB.Close()

	dtA, _ := mgrA.Begin(ctx)
	dtB, _ := mgrB.Begin(ctx)
	if err := dtA.Create(ctx, row("k", 1)); err != nil {
		t.Fatal(err)
	}
	if err := dtB.Create(ctx, row("k", 2)); err != nil {
		t.Fatal(err)
	}
	if err := dtA.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := dtB.Commit(ctx); !errors.Is(err, sqlstore.ErrConflict) {
		t.Fatalf("duplicate create: got %v, want ErrConflict", err)
	}
}

func TestRemoveSemantics(t *testing.T) {
	e := newEnv(t)
	e.store.Seed(row("1", 10))
	ctx := context.Background()

	dt := e.begin(t)
	if err := dt.Remove(ctx, key("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := dt.Load(ctx, key("1")); !errors.Is(err, sqlstore.ErrNotFound) {
		t.Fatalf("removed bean still loadable: %v", err)
	}
	if err := dt.Remove(ctx, key("1")); !errors.Is(err, sqlstore.ErrNotFound) {
		t.Fatalf("double remove: got %v", err)
	}
	if err := dt.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if e.store.RowCount("t") != 0 {
		t.Error("remove did not commit")
	}
	if _, ok := e.mgr.CommonStore().Get(key("1")); ok {
		t.Error("removed bean survived in common store")
	}
}

func TestRemoveRaceDetectedAtCommit(t *testing.T) {
	e := newEnv(t)
	e.store.Seed(row("1", 10))
	ctx := context.Background()

	dt := e.begin(t)
	if err := dt.Remove(ctx, key("1")); err != nil {
		t.Fatal(err)
	}
	// Concurrent delete wins; our remove must conflict ("the system
	// must also verify that the current-image still exists").
	if _, err := e.store.ApplyCommitSet(ctx, memento.CommitSet{
		Removes: []memento.ReadProof{{Key: key("1"), Version: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := dt.Commit(ctx); !errors.Is(err, sqlstore.ErrConflict) {
		t.Fatalf("got %v, want ErrConflict", err)
	}
}

func TestCreateThenRemoveAnnihilates(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	dt := e.begin(t)
	if err := dt.Create(ctx, row("x", 1)); err != nil {
		t.Fatal(err)
	}
	if err := dt.Remove(ctx, key("x")); err != nil {
		t.Fatal(err)
	}
	before := e.conn.Ops()
	if err := dt.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if got := e.conn.Ops() - before; got != 0 {
		t.Errorf("empty commit cost %d statements, want 0", got)
	}
	if e.store.RowCount("t") != 0 {
		t.Error("annihilated create reached the store")
	}
}

func TestRemoveThenCreateBecomesUpdate(t *testing.T) {
	e := newEnv(t)
	e.store.Seed(row("1", 10))
	ctx := context.Background()
	dt := e.begin(t)
	if err := dt.Remove(ctx, key("1")); err != nil {
		t.Fatal(err)
	}
	if err := dt.Create(ctx, row("1", 42)); err != nil {
		t.Fatal(err)
	}
	if err := dt.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := storeapi.Local(e.store).AutoGet(ctx, "t", "1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.Fields["n"].Int != 42 || res.Mem.Version != 2 {
		t.Errorf("remove+create = %v, want n=42 v=2", res.Mem)
	}
}

// BenchmarkWriteCommit is one warm split-servers transaction that
// updates a cached row and commits, over storeapi.Local, with the
// finder cache holding one result on the written table: the common
// store serves the load, and the commit installs its after-image in the
// common store and in the cached result.
func BenchmarkWriteCommit(b *testing.B) {
	store := sqlstore.New()
	b.Cleanup(store.Close)
	store.Seed(holding("h1", "u1"), holding("h2", "u1"))
	mgr := NewManager(storeapi.Local(store), WithShipping(WholeSet), WithFinderCache(true))
	b.Cleanup(mgr.Close)
	ctx := context.Background()
	dt, err := mgr.Begin(ctx)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := dt.Query(ctx, byAcct("u1")); err != nil {
		b.Fatal(err)
	}
	if err := dt.Commit(ctx); err != nil {
		b.Fatal(err)
	}
	h1 := memento.Key{Table: "t", ID: "h1"}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dt, err := mgr.Begin(ctx)
		if err != nil {
			b.Fatal(err)
		}
		m, err := dt.Load(ctx, h1)
		if err != nil {
			b.Fatal(err)
		}
		m.Fields["n"] = memento.Int(int64(i))
		if err := dt.Store(ctx, m); err != nil {
			b.Fatal(err)
		}
		if err := dt.Commit(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := mgr.FinderCache().Len(); n != 1 {
		b.Fatalf("finder cache holds %d results after the commits, want 1", n)
	}
}
