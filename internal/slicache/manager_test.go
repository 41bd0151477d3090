package slicache

import (
	"context"
	"testing"
	"time"

	"edgeejb/internal/component"
	"edgeejb/internal/dbwire"
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

	warm := e.begin(t)
	if _, err := warm.Load(ctx, key("1")); err != nil {
		t.Fatal(err)
	}
	if err := warm.Abort(ctx); err != nil {
		t.Fatal(err)
	}

	dt := e.begin(t)
	if _, err := dt.Load(ctx, key("1")); err != nil { // a common-store hit
		t.Fatal(err)
	}
	before := e.conn.Ops()
	if err := dt.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	// "each client request involves at least one round-trip call to the
	// back-end server" — a read the cache served is validated.
	if got := e.conn.Ops() - before; got != 1 {
		t.Errorf("read-only commit of a cached read cost %d statements, want 1", got)
	}
}

// TestReadOnlyCommitAtTheEdge pins which read-only transactions commit
// with no store call: those whose whole read set came from one store
// access made inside them. Everything else is validated as before.
func TestReadOnlyCommitAtTheEdge(t *testing.T) {
	load := func(ids ...string) func(context.Context, component.DataTx) error {
		return func(ctx context.Context, dt component.DataTx) error {
			for _, id := range ids {
				if _, err := dt.Load(ctx, key(id)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	loadMany := func(ctx context.Context, dt component.DataTx) error {
		_, err := dt.(component.MultiLoader).LoadMany(ctx, []memento.Key{key("1"), key("2")})
		return err
	}
	finder := func(ctx context.Context, dt component.DataTx) error {
		_, err := dt.Query(ctx, byAcct("a"))
		return err
	}
	then := func(fs ...func(context.Context, component.DataTx) error) func(context.Context, component.DataTx) error {
		return func(ctx context.Context, dt component.DataTx) error {
			for _, f := range fs {
				if err := f(ctx, dt); err != nil {
					return err
				}
			}
			return nil
		}
	}
	write := func(ctx context.Context, dt component.DataTx) error {
		m, err := dt.Load(ctx, key("1"))
		if err != nil {
			return err
		}
		m.Fields["n"] = memento.Int(7)
		return dt.Store(ctx, m)
	}
	cases := []struct {
		name    string
		opts    []ManagerOption
		warm    func(context.Context, component.DataTx) error // run and committed first, if set
		run     func(context.Context, component.DataTx) error
		wantOps uint64 // store calls made by the commit; 0 is a commit at the edge
	}{
		{name: "lone miss", run: load("1")},
		{name: "lone miss read twice", run: load("1", "1")},
		{name: "lone finder", run: finder},
		{name: "finder then a row it returned", run: then(finder, load("h1"))},
		{name: "lone miss, per image", opts: []ManagerOption{WithShipping(PerImage)}, run: load("1")},
		{name: "common-store hit", warm: load("1"), run: load("1"), wantOps: 1},
		{name: "hit and a miss", warm: load("1"), run: load("1", "2"), wantOps: 1},
		{name: "two misses at once", run: loadMany, wantOps: 1},
		{name: "two misses in turn", run: load("1", "2"), wantOps: 1},
		{name: "finder and a miss", run: then(finder, load("1")), wantOps: 1},
		{name: "finder-cache hit", opts: []ManagerOption{WithFinderCache(true)}, warm: finder, run: finder, wantOps: 1},
		{name: "lone miss that writes", run: write, wantOps: 1},
		// Begin, one CheckVersion, Commit: the paper's protocol, unchanged.
		{name: "lone miss, per statement", opts: []ManagerOption{WithShipping(PerStatement)}, run: load("1"), wantOps: 3},
	}
	ctx := context.Background()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := newEnv(t, append([]ManagerOption{WithShipping(WholeSet)}, c.opts...)...)
			e.store.Seed(row("1", 1), row("2", 2), holding("h1", "a"), holding("h2", "a"))
			if c.warm != nil {
				dt := e.begin(t)
				if err := c.warm(ctx, dt); err != nil {
					t.Fatal(err)
				}
				if err := dt.Commit(ctx); err != nil {
					t.Fatal(err)
				}
			}
			dt := e.begin(t)
			if err := c.run(ctx, dt); err != nil {
				t.Fatal(err)
			}
			if got, want := dt.(*sliTx).provenByItsRead(dt.(*sliTx).buildCommitSet()), c.wantOps == 0; got != want {
				t.Errorf("provenByItsRead = %v, want %v", got, want)
			}
			commits, before := e.mgr.Stats().Commits, e.conn.Ops()
			if err := dt.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			if got := e.conn.Ops() - before; got != c.wantOps {
				t.Errorf("commit made %d store calls, want %d", got, c.wantOps)
			}
			if got := e.mgr.Stats().Commits - commits; got != 1 {
				t.Errorf("commit counted %d times, want 1", got)
			}
		})
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

// TestOwnCommitHearsNoNotice: the store never sends an edge the notice
// of its own commit, so the after-image the commit installed stays
// cached with nothing to order against. Another edge hears the commit,
// and a later foreign commit is the only notice the committer applies:
// the stream is in commit order, so an own notice would have landed
// before the foreign one evicted its key. The same holds after the
// stream drops and the manager resubscribes.
func TestOwnCommitHearsNoNotice(t *testing.T) {
	for _, shipping := range []CommitShipping{WholeSet, PerImage} {
		t.Run(shipping.String(), func(t *testing.T) {
			store := sqlstore.New()
			defer store.Close()
			store.Seed(row("1", 1), row("2", 1))
			ctx := context.Background()
			srv := dbwire.NewServer(storeapi.Local(store))
			if err := srv.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer func() { srv.Close() }()
			addr := srv.Addr()
			db := dbwire.Dial(addr)
			defer db.Close()
			mgr := NewManager(db, WithShipping(shipping))
			if err := mgr.Start(ctx); err != nil {
				t.Fatal(err)
			}
			defer mgr.Close()
			other, cancel := store.Subscribe(0, 0)
			defer func() { cancel() }()

			for round := uint64(1); round <= 2; round++ {
				// Key 2 is cached, so the foreign commit's notice shows
				// when it lands: it evicts the key.
				dt, err := mgr.Begin(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := dt.Load(ctx, key("2")); err != nil {
					t.Fatal(err)
				}
				_ = dt.Abort(ctx)
				commitOneWrite(t, mgr)
				select {
				case <-other:
				case <-time.After(5 * time.Second):
					t.Fatalf("round %d: another subscriber never heard the commit", round)
				}
				v2, err := store.CurrentVersion(key("2"))
				if err != nil {
					t.Fatal(err)
				}
				foreign := memento.CommitSet{Writes: []memento.Memento{{Key: key("2"), Version: v2, Fields: memento.Fields{"n": memento.Int(0)}}}}
				if _, err := store.ApplyCommitSet(ctx, foreign); err != nil {
					t.Fatal(err)
				}
				<-other
				// noteNotice evicts a notice's keys before it counts the
				// notice, so wait for both: a count read the moment the
				// key is gone can miss the notice that evicted it.
				waitFor(t, 5*time.Second, func() bool {
					_, cached := mgr.CommonStore().Get(key("2"))
					return !cached && mgr.Stats().NoticesApplied >= round
				})
				if n := mgr.Stats().NoticesApplied; n != round {
					t.Fatalf("round %d: %d notices applied, want only the %d foreign", round, n, round)
				}
				// Each round is two commits after the seed's one: the
				// committer's write to key 1, then the foreign one.
				if got, ok := mgr.CommonStore().Get(key("1")); !ok || got.Version != 2*round {
					t.Fatalf("round %d: after-image = %v (cached %v), want version %d cached", round, got, ok, 2*round)
				}
				if p := db.WireStats().Pushes; p != round {
					t.Fatalf("round %d: %d notices pushed to the committer, want only the %d foreign", round, p, round)
				}
				if round == 1 {
					// Force a resubscribe: the origin must survive it.
					cancel()
					srv.Close()
					srv = dbwire.NewServer(storeapi.Local(store))
					if err := srv.Start(addr); err != nil {
						t.Fatal(err)
					}
					waitFor(t, 5*time.Second, func() bool { return mgr.Stats().Resubscribes == 1 })
					other, cancel = store.Subscribe(0, 0)
				}
			}
		})
	}
}

// plainConn decorates a Conn the way a tracing wrapper does: its
// transactions are plain storeapi.Txn values, neither Execer nor
// BatchTxn, so every statement goes through the Txn methods and a
// commit through Txn.Commit, which returns only an error. With
// dropCtx, Commit does not pass its context on either.
type plainConn struct {
	storeapi.Conn
	dropCtx bool
}

type plainTxn struct {
	storeapi.Txn
	dropCtx bool
}

func (c plainConn) Begin(ctx context.Context) (storeapi.Txn, error) {
	txn, err := c.Conn.Begin(ctx)
	if err != nil {
		return nil, err
	}
	return plainTxn{txn, c.dropCtx}, nil
}

func (t plainTxn) Commit(ctx context.Context) error {
	if t.dropCtx {
		ctx = context.Background()
	}
	return t.Txn.Commit(ctx)
}

// TestStatementCommitThroughPlainTxnKeepsCacheFresh: under PerImage
// and PerStatement, with plain transactions on both sides of the wire,
// the store's reply still carries the commit's number and the edge
// caches the after-image at it. When a decorator loses the number, the
// edge evicts the row instead: it hears no notice for its own commit,
// so a pre-commit image left cached would serve stale fields to the
// next transaction on the row and fail its validation.
func TestStatementCommitThroughPlainTxnKeepsCacheFresh(t *testing.T) {
	for _, shipping := range []CommitShipping{PerImage, PerStatement} {
		for _, dropCtx := range []bool{false, true} {
			name := shipping.String()
			if dropCtx {
				name += "/number-lost"
			}
			t.Run(name, func(t *testing.T) {
				store := sqlstore.New()
				defer store.Close()
				store.Seed(row("1", 1))
				ctx := context.Background()
				srv := dbwire.NewServer(plainConn{storeapi.Local(store), dropCtx})
				if err := srv.Start("127.0.0.1:0"); err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				db := dbwire.Dial(srv.Addr())
				defer db.Close()
				mgr := NewManager(plainConn{db, dropCtx}, WithShipping(shipping))
				if err := mgr.Start(ctx); err != nil {
					t.Fatal(err)
				}
				defer mgr.Close()

				for n := int64(2); n <= 3; n++ {
					commitOneWrite(t, mgr) // fails on a stale cached read
					v, err := store.CurrentVersion(key("1"))
					if err != nil {
						t.Fatal(err)
					}
					got, ok := mgr.CommonStore().Get(key("1"))
					fresh := ok && got.Version == v && got.Fields["n"].Int == n
					if dropCtx && ok || !dropCtx && !fresh {
						t.Fatalf("after commit %d: cached %v (cached %v), want n=%d at the store's v%d, or evicted once the number is lost", n-1, got, ok, n, v)
					}
				}
			})
		}
	}
}

// TestUnstartedManagerValidatesStaleEntry: a manager that never starts
// its invalidation stream keeps another edge's overwritten row cached,
// and commit validation is what catches it.
func TestUnstartedManagerValidatesStaleEntry(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	store.Seed(row("1", 1))
	ctx := context.Background()

	mgrA := NewManager(storeapi.Local(store))
	defer mgrA.Close()
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
		t.Fatal("entry evicted although its manager never started")
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
