package slicache

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"edgeejb/internal/memento"
	"edgeejb/internal/obs"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// TestFinderCacheWarmHitSkipsRoundTrip: with the finder cache on, a
// repeated finder is served locally — zero datastore statements — and
// still returns the committed result set.
func TestFinderCacheWarmHitSkipsRoundTrip(t *testing.T) {
	e := newEnv(t, WithFinderCache(true))
	e.store.Seed(holding("h1", "u1"), holding("h2", "u1"), holding("h3", "u2"))
	ctx := context.Background()

	dt := e.begin(t)
	got, err := dt.Query(ctx, byAcct("u1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("cold finder = %v", got)
	}
	_ = dt.Abort(ctx)

	before := e.conn.Ops()
	dt2 := e.begin(t)
	defer dt2.Abort(ctx)
	got, err = dt2.Query(ctx, byAcct("u1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Key.ID != "h1" || got[1].Key.ID != "h2" {
		t.Fatalf("warm finder = %v", got)
	}
	if ops := e.conn.Ops() - before; ops != 0 {
		t.Errorf("warm finder cost %d statements, want 0", ops)
	}
	st := e.mgr.FinderCache().Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("finder stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

// TestFinderCacheOnByDefault: a bare NewManager caches finder results,
// so a repeated finder costs no statement; a manager built as
// deploy.Paper() builds it, without the finder cache, runs every
// finder.
func TestFinderCacheOnByDefault(t *testing.T) {
	store := sqlstore.New()
	t.Cleanup(store.Close)
	store.Seed(holding("h1", "u1"))
	ctx := context.Background()
	for _, tc := range []struct {
		name     string
		opts     []ManagerOption
		wantHits uint64
	}{
		{"bare", nil, 1},
		{"paper", []ManagerOption{WithFinderCache(false)}, 0},
	} {
		conn := storeapi.NewCountingConn(storeapi.Local(store))
		mgr := NewManager(conn, tc.opts...)
		if err := mgr.Start(ctx); err != nil {
			t.Fatal(err)
		}
		var ops []uint64
		for range 2 {
			before := conn.Ops()
			dt, err := mgr.Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dt.Query(ctx, byAcct("u1")); err != nil {
				t.Fatal(err)
			}
			_ = dt.Abort(ctx)
			ops = append(ops, conn.Ops()-before)
		}
		mgr.Close()
		if st := mgr.FinderCache().Stats(); st.Hits != tc.wantHits {
			t.Errorf("%s: finder cache %+v, want %d hits", tc.name, st, tc.wantHits)
		}
		if cached := ops[1] == 0; cached != (tc.wantHits > 0) {
			t.Errorf("%s: the two finders cost %v statements", tc.name, ops)
		}
	}
}

// TestDisabledFinderCacheCostsNothing: a deploy.Paper() edge builds
// the cache off, and every finder still asks it, so a disabled lookup
// and store must not so much as build the query's cache key.
func TestDisabledFinderCacheCostsNothing(t *testing.T) {
	c := NewFinderCache(false)
	q := memento.Query{Table: "t", Where: []memento.Predicate{
		memento.Where("b", memento.Int(2)),
		memento.Where("a", memento.String("u1")),
	}}
	rows := []memento.Memento{holding("h1", "u1")}
	allocs := testing.AllocsPerRun(100, func() {
		ck := c.key(q)
		if _, _, ok := c.get(ck); ok {
			t.Fatal("disabled cache hit")
		}
		c.put(nil, ck, q, rows, time.Time{})
	})
	if allocs != 0 {
		t.Errorf("disabled get+put = %v allocs, want 0", allocs)
	}
}

// TestFinderCacheNeverOverlaysOwnUncommittedWrites: a transaction must
// never observe a cached finder result in place of its own uncommitted
// writes — updates, creates, and removes all win over the warm cache.
func TestFinderCacheNeverOverlaysOwnUncommittedWrites(t *testing.T) {
	e := newEnv(t, WithFinderCache(true))
	e.store.Seed(holding("h1", "u1"), holding("h2", "u1"))
	ctx := context.Background()

	// Warm the finder cache in a first transaction.
	dt := e.begin(t)
	if _, err := dt.Query(ctx, byAcct("u1")); err != nil {
		t.Fatal(err)
	}
	_ = dt.Abort(ctx)

	dt2 := e.begin(t)
	defer dt2.Abort(ctx)
	m, err := dt2.Load(ctx, memento.Key{Table: "t", ID: "h1"})
	if err != nil {
		t.Fatal(err)
	}
	m.Fields["acct"] = memento.String("u1")
	m.Fields["qty"] = memento.Int(42) // tx-local edit
	if err := dt2.Store(ctx, m); err != nil {
		t.Fatal(err)
	}
	if err := dt2.Create(ctx, holding("hNew", "u1")); err != nil {
		t.Fatal(err)
	}
	if err := dt2.Remove(ctx, memento.Key{Table: "t", ID: "h2"}); err != nil {
		t.Fatal(err)
	}

	before := e.conn.Ops()
	got, err := dt2.Query(ctx, byAcct("u1"))
	if err != nil {
		t.Fatal(err)
	}
	if ops := e.conn.Ops() - before; ops != 0 {
		t.Errorf("warm finder cost %d statements, want 0", ops)
	}
	ids := make(map[string]memento.Memento, len(got))
	for _, r := range got {
		ids[r.Key.ID] = r
	}
	if _, gone := ids["h2"]; gone {
		t.Error("cached finder result resurrected the transaction's own remove")
	}
	if _, created := ids["hNew"]; !created {
		t.Error("cached finder result hid the transaction's own create")
	}
	if h1, ok := ids["h1"]; !ok || h1.Fields["qty"].Int != 42 {
		t.Errorf("cached finder result overlaid the transaction's own update: %v", ids["h1"])
	}
}

// TestFinderCacheInvalidatedByOverlappingNotice: a commit notice whose
// write set overlaps a cached result evicts it — including
// a create that moves INTO the predicate, which no key-based
// invalidation could catch.
func TestFinderCacheInvalidatedByOverlappingNotice(t *testing.T) {
	e := newEnv(t, WithFinderCache(true))
	e.store.Seed(holding("h1", "u1"))
	ctx := context.Background()

	dt := e.begin(t)
	if _, err := dt.Query(ctx, byAcct("u1")); err != nil {
		t.Fatal(err)
	}
	_ = dt.Abort(ctx)
	if e.mgr.FinderCache().Len() != 1 {
		t.Fatal("finder cache not warm")
	}

	// A non-overlapping commit (other predicate value, key outside the
	// result set) leaves the entry alone.
	e.mgr.noteNotice(sqlstore.Notice{
		Seq: 991,
		Writes: []memento.WriteDesc{{
			Key:   memento.Key{Table: "t", ID: "zz"},
			After: memento.Fields{"acct": memento.String("u9")},
		}},
	})
	if e.mgr.FinderCache().Len() != 1 {
		t.Fatal("non-overlapping notice evicted the finder entry")
	}

	// A create whose after-image matches the predicate moves into the
	// result set: the entry must go.
	e.mgr.noteNotice(sqlstore.Notice{
		Seq: 992,
		Writes: []memento.WriteDesc{{
			Key:   memento.Key{Table: "t", ID: "hNew"},
			After: memento.Fields{"acct": memento.String("u1")},
		}},
	})
	if e.mgr.FinderCache().Len() != 0 {
		t.Fatal("create-into-result-set notice did not evict the finder entry")
	}
	if st := e.mgr.FinderCache().Stats(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}

	// The next finder refetches and sees the new row.
	dt2 := e.begin(t)
	defer dt2.Abort(ctx)
	e.store.Seed(holding("hNew", "u1"))
	got, err := dt2.Query(ctx, byAcct("u1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("refetched finder = %v, want h1+hNew", got)
	}
}

// TestFinderCacheKeyOnlyNoticeIsConservative: a write known by its key
// alone is blind; same-table finder entries must still be dropped.
func TestFinderCacheKeyOnlyNoticeIsConservative(t *testing.T) {
	e := newEnv(t, WithFinderCache(true))
	e.store.Seed(holding("h1", "u1"))
	ctx := context.Background()

	dt := e.begin(t)
	if _, err := dt.Query(ctx, byAcct("u1")); err != nil {
		t.Fatal(err)
	}
	_ = dt.Abort(ctx)

	e.mgr.noteNotice(sqlstore.Notice{
		Seq:    993,
		Writes: []memento.WriteDesc{{Key: memento.Key{Table: "t", ID: "unrelated"}}},
	})
	if e.mgr.FinderCache().Len() != 0 {
		t.Fatal("key-only notice did not conservatively evict the same-table entry")
	}
}

// TestFinderCacheOwnCommitRefreshes: the committing edge installs its
// own commit in the finder results it overlaps — the store sends it no
// notice of it — so the entry holds the committed result set at the new
// versions, and a follow-up finder on the same edge is a hit that never
// sees the pre-commit result set.
func TestFinderCacheOwnCommitRefreshes(t *testing.T) {
	e := newEnv(t, WithFinderCache(true))
	e.store.Seed(holding("h1", "u1"), holding("h2", "u1"))
	ctx := context.Background()

	dt := e.begin(t)
	if _, err := dt.Query(ctx, byAcct("u1")); err != nil {
		t.Fatal(err)
	}
	_ = dt.Abort(ctx)

	// Move h1 out of the predicate, update h2 in place, and commit.
	dt2 := e.begin(t)
	rows, err := dt2.Query(ctx, byAcct("u1"))
	if err != nil {
		t.Fatal(err)
	}
	rows[0].Fields["acct"] = memento.String("u9")
	rows[1].Fields["n"] = memento.Int(7)
	for _, m := range rows {
		if err := dt2.Store(ctx, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := dt2.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	want, err := storeapi.Local(e.store).AutoQuery(ctx, byAcct("u1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Mems) != 1 || want.Mems[0].Key.ID != "h2" {
		t.Fatalf("store answers %s, want h2 alone", rowVersions(want.Mems))
	}
	e.mgr.finders.mu.Lock()
	cached := maps.Clone(e.mgr.finders.entries)
	e.mgr.finders.mu.Unlock()
	entry, ok := cached[byAcct("u1").CacheKey()]
	if len(cached) != 1 || !ok {
		t.Fatalf("own commit left %d finder entries, want the refreshed one", len(cached))
	}
	if got, want := rowVersions(entry.mems), rowVersions(want.Mems); got != want {
		t.Fatalf("refreshed entry = %s, want %s", got, want)
	}

	before, hits := e.conn.Ops(), e.mgr.Stats().Finders.Hits
	dt3 := e.begin(t)
	defer dt3.Abort(ctx)
	got, err := dt3.Query(ctx, byAcct("u1"))
	if err != nil {
		t.Fatal(err)
	}
	if rowVersions(got) != rowVersions(want.Mems) || got[0].Fields["n"].Int != 7 {
		t.Fatalf("post-commit finder = %s, want %s", rowVersions(got), rowVersions(want.Mems))
	}
	if ops := e.conn.Ops() - before; ops != 0 {
		t.Errorf("post-commit finder cost %d statements, want 0", ops)
	}
	if e.mgr.Stats().Finders.Hits != hits+1 {
		t.Error("post-commit finder missed the refreshed entry")
	}
}

// commitRaceConn is a Conn whose first ApplyCommitSet runs the real
// call and then calls race before it returns the reply, so race lands
// while the commit's reply is in flight.
type commitRaceConn struct {
	storeapi.Conn
	once sync.Once
	race func()
}

func (c *commitRaceConn) ApplyCommitSet(ctx context.Context, cs memento.CommitSet) (sqlstore.ApplyResult, error) {
	res, err := c.Conn.ApplyCommitSet(ctx, cs)
	c.once.Do(c.race)
	return res, err
}

// TestFinderCommitRace: another edge's write that lands while this
// edge's own commit is in flight may be newer than that commit. An
// entry whose refreshed rows it overlaps must be dropped, or the
// refresh installs this edge's older image over it. The write here
// follows the commit at the store, on h3, the row the commit moved into
// the cached result: a write that leaves the old rows and the query
// alone, so its notice drops nothing and only the fill rule catches it.
// A row that moves into the result overlaps the query too, so its
// notice drops the entry, and the refresh must not bring it back.
func TestFinderCommitRace(t *testing.T) {
	ctx := context.Background()
	h3 := memento.Key{Table: "t", ID: "h3"}
	cases := map[string]func(t *testing.T, local storeapi.Conn) memento.CommitSet{
		"moves the row back out": func(t *testing.T, local storeapi.Conn) memento.CommitSet {
			m := current(t, local, h3)
			m.Fields["acct"] = memento.String("u2")
			return memento.CommitSet{Writes: []memento.Memento{m}}
		},
		"updates the row": func(t *testing.T, local storeapi.Conn) memento.CommitSet {
			m := current(t, local, h3)
			m.Fields["n"] = memento.Int(9)
			return memento.CommitSet{Writes: []memento.Memento{m}}
		},
		"removes the row": func(t *testing.T, local storeapi.Conn) memento.CommitSet {
			m := current(t, local, h3)
			return memento.CommitSet{Removes: []memento.ReadProof{{Key: h3, Version: m.Version}}}
		},
		"moves another row in": func(t *testing.T, local storeapi.Conn) memento.CommitSet {
			m := current(t, local, memento.Key{Table: "t", ID: "h4"})
			m.Fields["acct"] = memento.String("u1")
			return memento.CommitSet{Writes: []memento.Memento{m}}
		},
	}
	for name, other := range cases {
		t.Run(name, func(t *testing.T) {
			store := sqlstore.New()
			t.Cleanup(store.Close)
			store.Seed(holding("h1", "u1"), holding("h2", "u1"), holding("h3", "u2"), holding("h4", "u2"))
			local := storeapi.Local(store)
			conn := &commitRaceConn{Conn: local}
			mgr := NewManager(conn, WithShipping(WholeSet), WithFinderCache(true))
			t.Cleanup(mgr.Close)
			conn.race = func() {
				applied := mgr.Stats().NoticesApplied
				if _, err := store.ApplyCommitSet(ctx, other(t, local)); err != nil {
					t.Error(err)
					return
				}
				waitFor(t, 3*time.Second, func() bool { return mgr.Stats().NoticesApplied > applied })
			}
			if err := mgr.Start(ctx); err != nil {
				t.Fatal(err)
			}

			// Cache byAcct(u1), then move h3 into it in a commit.
			dt, err := mgr.Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dt.Query(ctx, byAcct("u1")); err != nil {
				t.Fatal(err)
			}
			m, err := dt.Load(ctx, h3)
			if err != nil {
				t.Fatal(err)
			}
			m.Fields["acct"] = memento.String("u1")
			if err := dt.Store(ctx, m); err != nil {
				t.Fatal(err)
			}
			if err := dt.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			if n := mgr.FinderCache().Len(); n != 0 {
				t.Errorf("%d finder entries survived a write newer than the commit", n)
			}

			want, err := local.AutoQuery(ctx, byAcct("u1"))
			if err != nil {
				t.Fatal(err)
			}
			dt2, err := mgr.Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer dt2.Abort(ctx)
			got, err := dt2.Query(ctx, byAcct("u1"))
			if err != nil {
				t.Fatal(err)
			}
			if rowVersions(got) != rowVersions(want.Mems) {
				t.Errorf("finder after the race = %s, store answers %s", rowVersions(got), rowVersions(want.Mems))
			}
		})
	}
}

// TestFinderCacheOwnCommitProperty: random transactions on one edge —
// finders over three accounts, updates that move rows between them or
// change them in place, creates and removes — interleaved with other
// edges' writes whose notices the edge has applied. After each of them
// every entry the finder cache holds is the store's own answer to its
// query, row for row and version for version, under both ways of
// shipping a commit.
func TestFinderCacheOwnCommitProperty(t *testing.T) {
	for _, shipping := range []CommitShipping{PerImage, WholeSet} {
		t.Run(shipping.String(), func(t *testing.T) {
			f := func(seed int64) bool { return runOwnCommitTrial(t, seed, shipping) }
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Error(err)
			}
		})
	}
}

// runOwnCommitTrial runs one random sequence and reports whether every
// cached finder result matched the store after each step.
func runOwnCommitTrial(t *testing.T, seed int64, shipping CommitShipping) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	store := sqlstore.New()
	defer store.Close()
	acct := func() string { return fmt.Sprintf("u%d", rng.Intn(3)) }
	id := func() string { return fmt.Sprintf("h%d", rng.Intn(8)) }
	for i := 0; i < 6; i++ {
		store.Seed(holding(fmt.Sprintf("h%d", i), acct()))
	}
	local := storeapi.Local(store)
	mgr := NewManager(local, WithShipping(shipping), WithFinderCache(true))
	defer mgr.Close()
	if err := mgr.Start(ctx); err != nil {
		t.Fatal(err)
	}

	for step := 0; step < 20; step++ {
		if rng.Intn(4) == 0 {
			// Another edge writes one row; its notice is applied before
			// the check.
			var cs memento.CommitSet
			res, err := local.AutoGet(ctx, "t", id())
			switch {
			case errors.Is(err, sqlstore.ErrNotFound):
				cs.Creates = []memento.Memento{holding(id(), acct())}
			case err != nil:
				t.Fatal(err)
			case rng.Intn(3) == 0:
				cs.Removes = []memento.ReadProof{{Key: res.Mem.Key, Version: res.Mem.Version}}
			default:
				m := res.Mem.Clone()
				m.Fields["acct"] = memento.String(acct())
				cs.Writes = []memento.Memento{m}
			}
			applied := mgr.Stats().NoticesApplied
			if _, err := store.ApplyCommitSet(ctx, cs); err != nil {
				continue // a create of a row that exists
			}
			for deadline := time.Now().Add(3 * time.Second); mgr.Stats().NoticesApplied == applied; time.Sleep(50 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatal("notice never applied")
				}
			}
		} else {
			dt, err := mgr.Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for op := 1 + rng.Intn(3); op > 0; op-- {
				key := memento.Key{Table: "t", ID: id()}
				switch rng.Intn(4) {
				case 0:
					_, err = dt.Query(ctx, byAcct(acct()))
				case 1:
					var m memento.Memento
					if m, err = dt.Load(ctx, key); err == nil {
						if rng.Intn(2) == 0 {
							m.Fields["acct"] = memento.String(acct())
						} else {
							m.Fields["n"] = memento.Int(rng.Int63n(100))
						}
						err = dt.Store(ctx, m)
					}
				case 2:
					err = dt.Create(ctx, holding(key.ID, acct()))
				case 3:
					err = dt.Remove(ctx, key)
				}
				if err != nil && !errors.Is(err, sqlstore.ErrNotFound) && !errors.Is(err, sqlstore.ErrExists) {
					t.Fatal(err)
				}
			}
			// A create of a row another edge made, which this edge has
			// not cached, loses validation; nothing else can.
			if err := dt.Commit(ctx); err != nil && !errors.Is(err, sqlstore.ErrConflict) {
				t.Fatal(err)
			}
		}

		mgr.finders.mu.Lock()
		cached := maps.Clone(mgr.finders.entries)
		mgr.finders.mu.Unlock()
		for _, e := range cached {
			q := e.q
			res, err := local.AutoQuery(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := rowVersions(e.mems), rowVersions(res.Mems); got != want {
				t.Logf("seed %d step %d: cached %s = %s, store answers %s", seed, step, q, got, want)
				return false
			}
		}
	}
	return true
}

// current reads key's committed row from the store.
func current(t *testing.T, local storeapi.Conn, key memento.Key) memento.Memento {
	t.Helper()
	res, err := local.AutoGet(context.Background(), key.Table, key.ID)
	if err != nil {
		t.Fatal(err)
	}
	return res.Mem
}

// TestFinderCacheConflictBlindInvalidatesAndEmitsStaleRead: losing
// validation on a row that entered the transaction via the finder cache
// must (a) evict the stale entry so a retry refetches, and (b) leave a
// stale_read forensic event — the signal that an invalidation was late.
func TestFinderCacheConflictBlindInvalidatesAndEmitsStaleRead(t *testing.T) {
	e := newEnv(t, WithFinderCache(true))
	e.store.Seed(holding("h1", "u1"), row("w", 1))
	ctx := context.Background()

	// Warm the finder cache.
	dt := e.begin(t)
	if _, err := dt.Query(ctx, byAcct("u1")); err != nil {
		t.Fatal(err)
	}
	_ = dt.Abort(ctx)

	seqBefore := obs.DefaultEvents.Seq()

	// New transaction reads through the cache, then the store moves
	// underneath it (no invalidation subscription is running).
	dt2 := e.begin(t)
	if _, err := dt2.Query(ctx, byAcct("u1")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.store.ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{{
			Key:     memento.Key{Table: "t", ID: "h1"},
			Version: 1,
			Fields:  memento.Fields{"acct": memento.String("u1"), "x": memento.Int(1)},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	m, err := dt2.Load(ctx, key("w"))
	if err != nil {
		t.Fatal(err)
	}
	m.Fields["n"] = memento.Int(2)
	if err := dt2.Store(ctx, m); err != nil {
		t.Fatal(err)
	}
	if err := dt2.Commit(ctx); err == nil {
		t.Fatal("stale finder-cached read survived validation")
	}
	if e.mgr.FinderCache().Len() != 0 {
		t.Error("conflict did not evict the stale finder entry")
	}
	var stale int
	for _, ev := range obs.DefaultEvents.Since(seqBefore) {
		if ev.Type == obs.EventStaleRead {
			stale++
			if ev.Bean != "t" || ev.Detail != "finder cache" {
				t.Errorf("stale_read event = %+v", ev)
			}
		}
	}
	if stale != 1 {
		t.Errorf("stale_read events = %d, want 1", stale)
	}
}

// TestFinderCacheChaosConcurrentInvalidation hammers the finder cache
// from concurrent readers, writers, and the live invalidation stream;
// run under -race it proves the cache's locking, and every transaction
// must either commit cleanly or fail with a real conflict.
func TestFinderCacheChaosConcurrentInvalidation(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	for i := 0; i < 8; i++ {
		store.Seed(holding(fmt.Sprintf("h%d", i), fmt.Sprintf("u%d", i%2)))
	}
	ctx := context.Background()
	mgr := NewManager(storeapi.Local(store), WithShipping(WholeSet), WithFinderCache(true))
	defer mgr.Close()
	if err := mgr.Start(ctx); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			acct := fmt.Sprintf("u%d", g%2)
			for rep := 0; rep < 25; rep++ {
				dt, err := mgr.Begin(ctx)
				if err != nil {
					errs <- err
					return
				}
				rows, err := dt.Query(ctx, byAcct(acct))
				if err != nil {
					errs <- err
					return
				}
				if g%2 == 0 && len(rows) > 0 {
					// Writers flip a counter on one row of their result set.
					m := rows[rep%len(rows)]
					m.Fields["n"] = memento.Int(m.Fields["n"].Int + 1)
					if err := dt.Store(ctx, m); err != nil {
						errs <- err
						return
					}
					if err := dt.Commit(ctx); err != nil && !errors.Is(err, sqlstore.ErrConflict) {
						errs <- err
						return
					}
				} else {
					_ = dt.Abort(ctx)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// At quiescence every cached result is the store's own answer to its
	// query, row for row and version for version.
	mgr.finders.mu.Lock()
	cached := maps.Clone(mgr.finders.entries)
	mgr.finders.mu.Unlock()
	for _, e := range cached {
		q := e.q
		res, err := storeapi.Local(store).AutoQuery(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rowVersions(e.mems), rowVersions(res.Mems); got != want {
			t.Errorf("cached %s = %s, store answers %s", q, got, want)
		}
	}
}

// rowVersions renders rows as their keys and versions, in order.
func rowVersions(mems []memento.Memento) string {
	var b strings.Builder
	for _, m := range mems {
		fmt.Fprintf(&b, "%s@%d ", m.Key, m.Version)
	}
	return b.String()
}

// fillRaceConn is a Conn whose first AutoQuery runs the real call and
// then calls race before it returns the reply, so race lands while the
// finder's store call is in flight.
type fillRaceConn struct {
	storeapi.Conn
	once sync.Once
	race func()
}

func (c *fillRaceConn) AutoQuery(ctx context.Context, q memento.Query) (storeapi.QueryResult, error) {
	res, err := c.Conn.AutoQuery(ctx, q)
	c.once.Do(c.race)
	return res, err
}

// TestFinderFillRace: a finder result whose store call was in flight
// while a write that adds a row to it committed must not be cached, or
// a later finder on the edge misses the row until another overlapping
// write evicts the entry; commit validation cannot catch it, as it
// proves the rows read, not the predicate. The write may be another
// edge's, whose notice arrives in the window; this edge's own, which
// the store never sends back; or one whose notice the edge never hears
// because its stream dropped and came back.
func TestFinderFillRace(t *testing.T) {
	create := memento.CommitSet{Creates: []memento.Memento{holding("h2", "u1")}}
	cases := map[string]func(t *testing.T, store *sqlstore.Store, mgr *Manager, subs chan subscribed){
		"notice": func(t *testing.T, store *sqlstore.Store, mgr *Manager, _ chan subscribed) {
			applied := mgr.Stats().NoticesApplied
			if _, err := store.ApplyCommitSet(context.Background(), create); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 3*time.Second, func() bool { return mgr.Stats().NoticesApplied > applied })
		},
		"own commit": func(t *testing.T, _ *sqlstore.Store, mgr *Manager, _ chan subscribed) {
			ctx := context.Background()
			dt, err := mgr.Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := dt.Create(ctx, holding("h2", "u1")); err != nil {
				t.Fatal(err)
			}
			if err := dt.Commit(ctx); err != nil {
				t.Fatal(err)
			}
		},
		"stream dropped": func(t *testing.T, store *sqlstore.Store, mgr *Manager, subs chan subscribed) {
			resubscribes := mgr.Stats().Resubscribes
			(<-subs).cancel()
			if _, err := store.ApplyCommitSet(context.Background(), create); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 3*time.Second, func() bool { return mgr.Stats().Resubscribes > resubscribes })
		},
	}
	for name, race := range cases {
		t.Run(name, func(t *testing.T) {
			store := sqlstore.New()
			t.Cleanup(store.Close)
			store.Seed(holding("h1", "u1"))
			ctx := context.Background()
			subs := make(chan subscribed, 4)
			conn := &fillRaceConn{Conn: subscribeRecorder{Conn: storeapi.Local(store), subs: subs}}
			mgr := NewManager(conn, WithFinderCache(true))
			t.Cleanup(mgr.Close)
			conn.race = func() { race(t, store, mgr, subs) }
			if err := mgr.Start(ctx); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				dt, err := mgr.Begin(ctx)
				if err != nil {
					t.Fatal(err)
				}
				got, err := dt.Query(ctx, byAcct("u1"))
				if err != nil {
					t.Fatal(err)
				}
				_ = dt.Abort(ctx)
				if i == 1 && len(got) != 2 {
					t.Errorf("finder after the race = %s, want h1 and h2", rowVersions(got))
				}
			}
		})
	}
}

// BenchmarkFinderCacheHit measures the warm-hit path: a repeated finder
// served entirely from the finder cache. CI enforces an allocs/op
// budget on it — the hit path must stay free of per-row re-fetch work.
func BenchmarkFinderCacheHit(b *testing.B) {
	store := sqlstore.New()
	defer store.Close()
	for i := 0; i < 10; i++ {
		store.Seed(holding(fmt.Sprintf("h%d", i), "u1"))
	}
	ctx := context.Background()
	mgr := NewManager(storeapi.Local(store), WithFinderCache(true))
	defer mgr.Close()
	q := byAcct("u1")

	// Warm.
	dt, err := mgr.Begin(ctx)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := dt.Query(ctx, q); err != nil {
		b.Fatal(err)
	}
	_ = dt.Abort(ctx)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dt, err := mgr.Begin(ctx)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := dt.Query(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 10 {
			b.Fatalf("rows = %d", len(rows))
		}
		_ = dt.Abort(ctx)
	}
	b.StopTimer()
	if st := mgr.FinderCache().Stats(); st.Hits < uint64(b.N) {
		b.Fatalf("hits = %d, want >= %d", st.Hits, b.N)
	}
}

// BenchmarkFinderCacheOwnCommit measures an own commit that refreshes
// one cached holdings result, as sliTx.Commit does through
// FinderCache.Commit: an update of one of ten rows that keeps it in the
// result. CI enforces an allocs/op budget on it — the refresh builds the
// entry's new rows and nothing else.
func BenchmarkFinderCacheOwnCommit(b *testing.B) {
	c := NewFinderCache(true)
	q := byAcct("u1")
	rows := make([]memento.Memento, 10)
	for i := range rows {
		rows[i] = holding(fmt.Sprintf("h%d", i), "u1")
		rows[i].Version = 1
	}
	c.put(new(Fill), c.key(q), q, rows, time.Time{})
	upd := rows[3].Clone()
	upd.Version = 2
	upd.Fields["qty"] = memento.Int(7)
	written := []memento.Memento{upd}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Commit(new(Fill), ownWrites(written, nil), written, nil)
	}
	b.StopTimer()
	got, _, ok := c.get(c.key(q))
	if !ok || len(got) != len(rows) || got[3].Version != 2 {
		b.Fatalf("own commit left the entry as %s (cached %v)", rowVersions(got), ok)
	}
}

// TestFinderCacheBlindNoticeEvictsTable: blind descriptors, keys alone
// as a lost validation hands them on, evict every cached result on the
// written table and none on another: they over-evict, and never leave a
// stale result behind. The same write with its after-image evicts nothing, as
// the row is in neither result and matches neither predicate.
func TestFinderCacheBlindNoticeEvictsTable(t *testing.T) {
	e := newEnv(t, WithFinderCache(true))
	fc := e.mgr.FinderCache()
	other := memento.Query{Table: "o", Where: []memento.Predicate{memento.Where("acct", memento.String("u1"))}}
	put := func(q memento.Query, mems ...memento.Memento) {
		fc.put(new(Fill), fc.key(q), q, mems, time.Time{})
	}
	put(byAcct("u1"), holding("h1", "u1"))
	put(byAcct("u2"), holding("h2", "u2"))
	put(other)

	after := memento.Fields{"acct": memento.String("u3")}
	e.mgr.noteNotice(sqlstore.Notice{Seq: 2, Writes: []memento.WriteDesc{{Key: key("h9"), After: after}}})
	if n := fc.Len(); n != 3 {
		t.Fatalf("a write outside every result evicted %d of 3 results", 3-n)
	}
	e.mgr.noteNotice(sqlstore.Notice{Seq: 3, Writes: []memento.WriteDesc{{Key: key("h9")}}})
	for _, q := range []memento.Query{byAcct("u1"), byAcct("u2")} {
		if _, _, ok := fc.get(fc.key(q)); ok {
			t.Errorf("%s survived a blind write to its table", q)
		}
	}
	if _, _, ok := fc.get(fc.key(other)); !ok {
		t.Error("a blind write evicted a result on another table")
	}
}

// subscribeRecorder is a Conn that hands each subscription's context
// and cancel to the test.
type subscribeRecorder struct {
	storeapi.Conn
	subs chan subscribed
}

type subscribed struct {
	ctx    context.Context
	cancel func()
}

func (c subscribeRecorder) Subscribe(ctx context.Context) (<-chan sqlstore.Notice, func(), error) {
	ch, cancel, err := c.Conn.Subscribe(ctx)
	if err == nil {
		c.subs <- subscribed{ctx, cancel}
	}
	return ch, cancel, err
}

// TestSubscriptionUnderOriginAlone: a manager subscribes under its
// origin, and the context carries nothing else for a server to read,
// whether its finder cache is on or off; the resubscription after a
// lost stream asks the same.
func TestSubscriptionUnderOriginAlone(t *testing.T) {
	for _, finders := range []bool{false, true} {
		store := sqlstore.New()
		t.Cleanup(store.Close)
		conn := subscribeRecorder{Conn: storeapi.Local(store), subs: make(chan subscribed, 2)}
		mgr := NewManager(conn, WithFinderCache(finders))
		t.Cleanup(mgr.Close)
		if err := mgr.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		first := <-conn.subs
		first.cancel()
		var second subscribed
		select {
		case second = <-conn.subs:
		case <-time.After(5 * time.Second):
			t.Fatalf("finder cache %v: no resubscription after the stream dropped", finders)
		}
		for i, s := range []subscribed{first, second} {
			if want := sqlstore.OriginContext(context.Background(), mgr.origin); fmt.Sprint(s.ctx) != fmt.Sprint(want) {
				t.Errorf("finder cache %v: subscription %d context %v, want %v", finders, i, s.ctx, want)
			}
			if got := sqlstore.OriginOf(s.ctx); got != mgr.origin {
				t.Errorf("finder cache %v: subscription %d under origin %#x, want %#x", finders, i, got, mgr.origin)
			}
		}
	}
}
