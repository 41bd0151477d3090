package slicache

import (
	"context"
	"testing"
	"time"

	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// commitOneWrite loads key "1", bumps n, and commits.
func commitOneWrite(t *testing.T, mgr *Manager) {
	t.Helper()
	ctx := context.Background()
	dt, err := mgr.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dt.Load(ctx, key("1"))
	if err != nil {
		t.Fatal(err)
	}
	m.Fields["n"] = memento.Int(m.Fields["n"].Int + 1)
	if err := dt.Store(ctx, m); err != nil {
		t.Fatal(err)
	}
	if err := dt.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

// commitReadAndWrite loads r and w, updates w unless readOnly, and
// returns what the commit cost on the counting conn.
func commitReadAndWrite(t *testing.T, shipping CommitShipping, readOnly bool) uint64 {
	t.Helper()
	e := newEnv(t, WithShipping(shipping))
	e.store.Seed(row("r", 1), row("w", 1))
	ctx := context.Background()

	dt := e.begin(t)
	if _, err := dt.Load(ctx, key("r")); err != nil { // miss: 1 AutoGet
		t.Fatal(err)
	}
	m, err := dt.Load(ctx, key("w")) // miss: 1 AutoGet
	if err != nil {
		t.Fatal(err)
	}
	if !readOnly {
		m.Fields["n"] = memento.Int(2)
		if err := dt.Store(ctx, m); err != nil {
			t.Fatal(err)
		}
	}
	before := e.conn.Ops()
	if err := dt.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	return e.conn.Ops() - before
}

func TestPerImageShippingStatementCount(t *testing.T) {
	// Combined-servers commit as shipped: begin + one batch carrying
	// CheckVersion(r), CheckedPut(w) and the commit = 2 exchanges,
	// whatever the set size.
	if got := commitReadAndWrite(t, PerImage, false); got != 2 {
		t.Errorf("per-image commit cost %d exchanges, want 2", got)
	}
}

func TestPerImageReadOnlyShippingStatementCount(t *testing.T) {
	// A combined-servers commit that writes nothing opens no session:
	// one autocommit validation of both read proofs = 1 exchange.
	if got := commitReadAndWrite(t, PerImage, true); got != 1 {
		t.Errorf("read-only per-image commit cost %d exchanges, want 1", got)
	}
}

func TestPerStatementShippingStatementCount(t *testing.T) {
	// The paper's combined-servers commit: begin + CheckVersion(r) +
	// CheckedPut(w) + commit = 4 statements, "one per memento image"
	// plus brackets.
	if got := commitReadAndWrite(t, PerStatement, false); got != 4 {
		t.Errorf("per-statement commit cost %d statements, want 4", got)
	}
}

func TestWholeSetShippingSingleStatement(t *testing.T) {
	e := newEnv(t, WithShipping(WholeSet))
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
	m.Fields["n"] = memento.Int(2)
	if err := dt.Store(ctx, m); err != nil {
		t.Fatal(err)
	}
	before := e.conn.Ops()
	if err := dt.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	// Split-servers commit: the whole set in ONE round trip.
	if got := e.conn.Ops() - before; got != 1 {
		t.Errorf("whole-set commit cost %d statements, want 1", got)
	}
}

func TestReadOnlyCommitStillValidates(t *testing.T) {
	e := newEnv(t, WithShipping(WholeSet))
	e.store.Seed(row("1", 1))
	ctx := context.Background()

	dt := e.begin(t)
	if _, err := dt.Load(ctx, key("1")); err != nil {
		t.Fatal(err)
	}
	before := e.conn.Ops()
	if err := dt.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	// "each client request involves at least one round-trip call to the
	// back-end server" — read-only transactions validate their read set.
	if got := e.conn.Ops() - before; got != 1 {
		t.Errorf("read-only commit cost %d statements, want 1", got)
	}
}

// TestStrictModeIsDefault pins the paper's one consistency contract on a
// manager built with no options at all: a read served from the warm
// common store is still proven against the persistent store at commit.
func TestStrictModeIsDefault(t *testing.T) {
	e := newEnv(t)
	e.store.Seed(row("1", 1))
	ctx := context.Background()

	warm := e.begin(t)
	if _, err := warm.Load(ctx, key("1")); err != nil {
		t.Fatal(err)
	}
	if err := warm.Abort(ctx); err != nil {
		t.Fatal(err)
	}

	dt := e.begin(t)
	if _, err := dt.Load(ctx, key("1")); err != nil {
		t.Fatal(err)
	}
	before := e.store.Stats().VersionChecks
	if err := dt.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if got := e.store.Stats().VersionChecks - before; got != 1 {
		t.Errorf("commit of a cached read ran %d version checks at the store, want 1", got)
	}
}

func TestInvalidationEvictsOtherManagersEntries(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	store.Seed(row("1", 1))
	ctx := context.Background()

	mgrA := NewManager(storeapi.Local(store))
	defer mgrA.Close()
	if err := mgrA.Start(ctx); err != nil {
		t.Fatal(err)
	}
	mgrB := NewManager(storeapi.Local(store))
	defer mgrB.Close()
	if err := mgrB.Start(ctx); err != nil {
		t.Fatal(err)
	}

	// Warm A's cache.
	dt, _ := mgrA.Begin(ctx)
	if _, err := dt.Load(ctx, key("1")); err != nil {
		t.Fatal(err)
	}
	_ = dt.Abort(ctx)
	if _, ok := mgrA.CommonStore().Get(key("1")); !ok {
		t.Fatal("A's cache not warm")
	}

	// B commits an update; A must be invalidated by the pushed notice.
	commitOneWrite(t, mgrB)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := mgrA.CommonStore().Get(key("1")); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("A's stale entry never invalidated")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// B's own entry must have been refreshed, not invalidated (the
	// notice for B's own transaction is filtered).
	time.Sleep(20 * time.Millisecond)
	cached, ok := mgrB.CommonStore().Get(key("1"))
	if !ok {
		t.Fatal("B evicted its own freshly committed entry")
	}
	if cached.Version != 2 {
		t.Errorf("B's entry version = %d, want 2", cached.Version)
	}
}

func TestInvalidationDisabledAblation(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	store.Seed(row("1", 1))
	ctx := context.Background()

	mgrA := NewManager(storeapi.Local(store), WithInvalidation(false))
	defer mgrA.Close()
	if err := mgrA.Start(ctx); err != nil {
		t.Fatal(err)
	}
	mgrB := NewManager(storeapi.Local(store))
	defer mgrB.Close()

	dt, _ := mgrA.Begin(ctx)
	if _, err := dt.Load(ctx, key("1")); err != nil {
		t.Fatal(err)
	}
	_ = dt.Abort(ctx)
	commitOneWrite(t, mgrB)
	time.Sleep(50 * time.Millisecond)

	// A's entry is stale but present: staleness is discovered at commit
	// validation instead.
	cached, ok := mgrA.CommonStore().Get(key("1"))
	if !ok {
		t.Fatal("entry evicted despite invalidation being disabled")
	}
	if cached.Version != 1 {
		t.Errorf("entry version = %d, want stale 1", cached.Version)
	}
	dt2, _ := mgrA.Begin(ctx)
	m, err := dt2.Load(ctx, key("1"))
	if err != nil {
		t.Fatal(err)
	}
	m.Fields["n"] = memento.Int(9)
	if err := dt2.Store(ctx, m); err != nil {
		t.Fatal(err)
	}
	if err := dt2.Commit(ctx); err == nil {
		t.Fatal("stale write committed without detection")
	}
}

func TestManagerStartIdempotentAndClose(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	mgr := NewManager(storeapi.Local(store))
	ctx := context.Background()
	if err := mgr.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start(ctx); err != nil {
		t.Fatal(err)
	}
	mgr.Close()
	mgr.Close() // idempotent
}

func TestManagerStats(t *testing.T) {
	e := newEnv(t)
	e.store.Seed(row("1", 1))
	ctx := context.Background()

	dt := e.begin(t)
	if _, err := dt.Load(ctx, key("1")); err != nil {
		t.Fatal(err)
	}
	if err := dt.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	st := e.mgr.Stats()
	if st.Begins != 1 || st.Commits != 1 || st.Loads != 1 || st.MissFetches != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Cache.Entries != 1 {
		t.Errorf("cache entries = %d, want 1", st.Cache.Entries)
	}
}

func TestCommonStoreVersionMonotonic(t *testing.T) {
	cs := NewCommonStore()
	cs.Put(memento.Memento{Key: key("1"), Version: 5})
	cs.Put(memento.Memento{Key: key("1"), Version: 3}) // stale put ignored
	got, ok := cs.Get(key("1"))
	if !ok || got.Version != 5 {
		t.Errorf("got %v, want version 5 retained", got)
	}
	cs.Put(memento.Memento{Key: key("1"), Version: 7})
	got, _ = cs.Get(key("1"))
	if got.Version != 7 {
		t.Errorf("newer version not stored: %v", got)
	}
}
