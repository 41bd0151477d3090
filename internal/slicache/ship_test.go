package slicache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"edgeejb/internal/dbwire"
	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// wireStore is a store behind a loopback dbwire server, so a batch is a
// real OpBatch frame and not storeapi's serial fallback.
type wireStore struct {
	store  *sqlstore.Store
	client *dbwire.Client
}

func newWireStore(t testing.TB) *wireStore {
	t.Helper()
	store := sqlstore.New()
	t.Cleanup(store.Close)
	srv := dbwire.NewServer(storeapi.Local(store))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	client := dbwire.Dial(srv.Addr())
	t.Cleanup(func() { _ = client.Close() })
	return &wireStore{store: store, client: client}
}

// settled reports whether client holds conns connections and store no
// open transaction: every one begun has committed or aborted.
func settled(client *dbwire.Client, store *sqlstore.Store, conns int) error {
	if n := client.NumConns(); n != conns {
		return fmt.Errorf("%d connections open, want %d", n, conns)
	}
	if st := store.Stats(); st.Begins != st.Commits+st.Aborts {
		return fmt.Errorf("%d transactions begun, %d ended", st.Begins, st.Commits+st.Aborts)
	}
	return nil
}

// image renders table t deterministically: every row with its version
// and fields, in key order.
func (w *wireStore) image(t *testing.T) string {
	t.Helper()
	res, err := storeapi.Local(w.store).AutoQuery(context.Background(), memento.Query{Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, len(res.Mems))
	for i, m := range res.Mems {
		rows[i] = m.String()
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// errClass reduces a commit error to what a caller can act on.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, storeapi.ErrStmtSkipped):
		return "skipped"
	case errors.Is(err, sqlstore.ErrConflict):
		var ce *sqlstore.ConflictError
		if errors.As(err, &ce) {
			return fmt.Sprintf("conflict %s want v%d have v%d", ce.Key, ce.Expected, ce.Actual)
		}
		return "conflict"
	case errors.Is(err, sqlstore.ErrExists):
		return "exists"
	case errors.Is(err, sqlstore.ErrNotFound):
		return "not found"
	default:
		return "other: " + err.Error()
	}
}

// randomCommitSet draws a commit set over keys k0..k7, each key in at
// most one role, with versions taken from the store's true state —
// unless stale, which gives one element a version the store is not at.
func randomCommitSet(rng *rand.Rand, store *sqlstore.Store, stale bool) memento.CommitSet {
	var cs memento.CommitSet
	for _, i := range rng.Perm(8)[:1+rng.Intn(6)] {
		k := key(fmt.Sprintf("k%d", i))
		v, err := store.CurrentVersion(k)
		exists := err == nil
		after := memento.Memento{Key: k, Version: v, Fields: memento.Fields{"n": memento.Int(rng.Int63n(1000))}}
		switch {
		case !exists && rng.Intn(2) == 0:
			cs.Reads = append(cs.Reads, memento.ReadProof{Key: k})
		case !exists:
			cs.Creates = append(cs.Creates, after)
		case rng.Intn(3) == 0:
			cs.Reads = append(cs.Reads, memento.ReadProof{Key: k, Version: v})
		case rng.Intn(2) == 0:
			cs.Writes = append(cs.Writes, after)
		default:
			cs.Removes = append(cs.Removes, memento.ReadProof{Key: k, Version: v})
		}
	}
	if !stale {
		return cs
	}
	// Plant one stale element: a version the row has moved past, or a
	// create / absence proof for a row that exists.
	switch {
	case len(cs.Writes) > 0:
		cs.Writes[rng.Intn(len(cs.Writes))].Version += 7
	case len(cs.Removes) > 0:
		cs.Removes[rng.Intn(len(cs.Removes))].Version += 7
	case len(cs.Reads) > 0:
		r := &cs.Reads[rng.Intn(len(cs.Reads))]
		r.Version += 7
	default:
		cs.Creates[0].Key = key("k-seeded")
	}
	return cs
}

// TestShippingsAgreeProperty: over random commit sets, clean and with a
// stale version planted, the batched and the per-statement shipping
// return the same error class, the same new versions, and leave
// identical stores behind. Read-only sets compare the batched side's
// one-shot validation against the statement-by-statement one.
func TestShippingsAgreeProperty(t *testing.T) {
	trial := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ctx := context.Background()
		batched, serial := newWireStore(t), newWireStore(t)
		for _, w := range []*wireStore{batched, serial} {
			w.store.Seed(row("k-seeded", 1))
			for i := 0; i < 8; i += 2 {
				w.store.Seed(row(fmt.Sprintf("k%d", i), int64(i)))
			}
		}

		for step := 0; step < 8; step++ {
			cs := randomCommitSet(rng, batched.store, rng.Intn(3) == 0)
			outB, errB := ship(ctx, batched.client, PerImage, cs)
			outS, errS := ship(ctx, serial.client, PerStatement, cs)
			if classB, classS := errClass(errB), errClass(errS); classB != classS || classB == "skipped" {
				t.Logf("seed %d step %d: batched %q, serial %q", seed, step, classB, classS)
				return false
			}
			if !reflect.DeepEqual(outB.NewVersions, outS.NewVersions) {
				t.Logf("seed %d step %d: new versions %v vs %v", seed, step, outB.NewVersions, outS.NewVersions)
				return false
			}
			if ib, is := batched.image(t), serial.image(t); ib != is {
				t.Logf("seed %d step %d: stores diverged\nbatched:\n%s\nserial:\n%s", seed, step, ib, is)
				return false
			}
		}
		// Neither shipping left a transaction open, and each ran every
		// commit on its one shared connection.
		for _, w := range []*wireStore{batched, serial} {
			if err := settled(w.client, w.store, 1); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(trial, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBatchedCommitMidBatchConflict: a statement in the middle of the
// commit batch loses validation, over a real dbwire server. The caller
// gets that statement's conflict with its attribution, nothing after it
// ran, and nothing is left behind: no server-side transaction holding
// locks, no connection but the shared one, no cached copy of the
// touched keys.
func TestBatchedCommitMidBatchConflict(t *testing.T) {
	w := newWireStore(t)
	w.store.Seed(row("a", 1), row("b", 1), row("c", 1))
	ctx := context.Background()
	mgr := NewManager(w.client, WithShipping(PerImage))
	defer mgr.Close()

	// update loads a, b and c and rewrites all three, so the batch is
	// CheckedPut(a), CheckedPut(b), CheckedPut(c), Commit.
	update := func(n int64) error {
		dt, err := mgr.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"a", "b", "c"} {
			m, err := dt.Load(ctx, key(id))
			if err != nil {
				t.Fatal(err)
			}
			m.Fields["n"] = memento.Int(n)
			if err := dt.Store(ctx, m); err != nil {
				t.Fatal(err)
			}
		}
		return dt.Commit(ctx)
	}
	if err := update(2); err != nil { // warm: the cache now holds a, b, c at v2
		t.Fatal(err)
	}
	if err := settled(w.client, w.store, 1); err != nil {
		t.Fatalf("warm: %v", err)
	}

	// A concurrent writer wins on b, the middle statement.
	if _, err := w.store.ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{{Key: key("b"), Version: 2, Fields: memento.Fields{"n": memento.Int(50)}}},
	}); err != nil {
		t.Fatal(err)
	}
	before, stBefore := w.client.RoundTrips(), w.store.Stats()
	err := update(3)
	var ce *sqlstore.ConflictError
	if !errors.As(err, &ce) || errors.Is(err, storeapi.ErrStmtSkipped) {
		t.Fatalf("got %v (%T), want the failing statement's *sqlstore.ConflictError", err, err)
	}
	if ce.Key != key("b") || ce.Expected != 2 || ce.Actual != 3 {
		t.Errorf("conflict on %s want v%d have v%d; expected b, 2, 3", ce.Key, ce.Expected, ce.Actual)
	}
	// Begin + the batch + the abort the untaken commit makes necessary.
	if got := w.client.RoundTrips() - before; got != 3 {
		t.Errorf("conflicting commit cost %d round trips, want 3", got)
	}
	// The store saw a's put and b's, then stopped: c's never ran, the
	// commit never ran, and the abort rolled a's put back.
	st := w.store.Stats()
	if puts, commits, aborts := st.Puts-stBefore.Puts, st.Commits-stBefore.Commits, st.Aborts-stBefore.Aborts; puts != 2 || commits != 0 || aborts != 1 {
		t.Errorf("store ran %d puts, %d commits, %d aborts; want 2, 0, 1", puts, commits, aborts)
	}
	for id, want := range map[string]uint64{"a": 2, "b": 3, "c": 2} {
		if v, _ := w.store.CurrentVersion(key(id)); v != want {
			t.Errorf("%s at v%d after the failed commit, want v%d", id, v, want)
		}
	}
	if err := settled(w.client, w.store, 1); err != nil {
		t.Errorf("after the conflict: %v", err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if _, ok := mgr.CommonStore().Get(key(id)); ok {
			t.Errorf("stale %s survived the conflict in the cache", id)
		}
	}
	// The first transaction held an exclusive lock on a when it failed.
	// A retry on the same keys succeeds only if that transaction is gone
	// from the server; otherwise it times out waiting for the lock.
	if err := update(4); err != nil {
		t.Fatalf("retry after the conflict: %v", err)
	}
}

// TestReadOnlyPerImageCommitConflict: a combined-servers transaction
// that only read loses validation on a stale read proof, over a real
// dbwire server. Its one-shot validation returns the conflict with its
// attribution in one round trip, opens no session at the database, and
// leaves nothing behind: no open transaction, no connection but the
// shared one, no cached copy of the keys it read.
func TestReadOnlyPerImageCommitConflict(t *testing.T) {
	w := newWireStore(t)
	w.store.Seed(row("a", 1), row("b", 1))
	ctx := context.Background()
	mgr := NewManager(w.client, WithShipping(PerImage))
	defer mgr.Close()

	read := func() error {
		dt, err := mgr.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"a", "b"} {
			if _, err := dt.Load(ctx, key(id)); err != nil {
				t.Fatal(err)
			}
		}
		return dt.Commit(ctx)
	}
	if err := read(); err != nil { // warm: the cache now holds a, b at v1
		t.Fatal(err)
	}
	if err := settled(w.client, w.store, 1); err != nil {
		t.Fatalf("warm: %v", err)
	}

	// A concurrent writer moves b past the version the cache holds.
	win, err := w.store.ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{{Key: key("b"), Version: 1, Fields: memento.Fields{"n": memento.Int(50)}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	before, stBefore := w.client.RoundTrips(), w.store.Stats()
	err = read()
	var ce *sqlstore.ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v (%T), want *sqlstore.ConflictError", err, err)
	}
	if ce.Key != key("b") || ce.Expected != 1 || ce.Actual != win.Seq {
		t.Errorf("conflict on %s want v%d have v%d; expected b, 1, the winner's Seq %d",
			ce.Key, ce.Expected, ce.Actual, win.Seq)
	}
	if got := w.client.RoundTrips() - before; got != 1 {
		t.Errorf("read-only conflicting commit cost %d round trips, want 1", got)
	}
	// The store's validator ran in its own transaction and rolled it
	// back; nothing was put and nothing committed.
	st := w.store.Stats()
	if puts, commits, fails := st.Puts-stBefore.Puts, st.Commits-stBefore.Commits, st.OptimisticFail-stBefore.OptimisticFail; puts != 0 || commits != 0 || fails != 1 {
		t.Errorf("store ran %d puts, %d commits, %d failed validations; want 0, 0, 1", puts, commits, fails)
	}
	if err := settled(w.client, w.store, 1); err != nil {
		t.Errorf("after the conflict: %v", err)
	}
	for _, id := range []string{"a", "b"} {
		if _, ok := mgr.CommonStore().Get(key(id)); ok {
			t.Errorf("stale %s survived the conflict in the cache", id)
		}
	}
	if err := read(); err != nil {
		t.Fatalf("retry after the conflict: %v", err)
	}
}

// benchmarkPerImageCommit runs the combined-servers commit of cs over a
// loopback dbwire connection and reports the round trips per commit.
// bump, when non-nil, readies cs for the next iteration.
func benchmarkPerImageCommit(b *testing.B, cs memento.CommitSet, bump func(i int)) {
	w := newWireStore(b)
	w.store.Seed(row("r", 1), row("w", 1))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	before := w.client.WireStats().RoundTrips
	for i := 0; i < b.N; i++ {
		if bump != nil {
			bump(i)
		}
		if _, err := ship(ctx, w.client, PerImage, cs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(w.client.WireStats().RoundTrips-before)/float64(b.N), "rts/op")
}

// BenchmarkPerImageCommit is the combined-servers commit of one read and
// one write. CI holds its rts/op at exactly 2: begin, and one batch for
// everything else.
func BenchmarkPerImageCommit(b *testing.B) {
	cs := memento.CommitSet{
		Reads:  []memento.ReadProof{{Key: key("r"), Version: 1}},
		Writes: []memento.Memento{row("w", 2)},
	}
	benchmarkPerImageCommit(b, cs, func(i int) { cs.Writes[0].Version = uint64(i + 1) })
}

// BenchmarkPerImageReadOnlyCommit is the combined-servers commit of two
// reads. CI holds its rts/op at exactly 1: one autocommit validation.
func BenchmarkPerImageReadOnlyCommit(b *testing.B) {
	benchmarkPerImageCommit(b, memento.CommitSet{
		Reads: []memento.ReadProof{{Key: key("r"), Version: 1}, {Key: key("w"), Version: 1}},
	}, nil)
}

// TestRecreatedRowRejectsStaleProofOverTheWire: over dbwire, under
// WholeSet and PerImage, a row removed and created again comes back at a
// version above its first incarnation's, so a read proof of the removed
// incarnation is rejected rather than validated against the new one.
func TestRecreatedRowRejectsStaleProofOverTheWire(t *testing.T) {
	for _, shipping := range []CommitShipping{WholeSet, PerImage} {
		t.Run(shipping.String(), func(t *testing.T) {
			w := newWireStore(t)
			ctx := context.Background()
			commit := func(cs memento.CommitSet) (sqlstore.ApplyResult, error) {
				return ship(ctx, w.client, shipping, cs)
			}
			k := key("h-u-1")
			create := memento.CommitSet{Creates: []memento.Memento{{Key: k, Fields: memento.Fields{"n": memento.Int(1)}}}}
			first, err := commit(create)
			if err != nil {
				t.Fatal(err)
			}
			stale := first.NewVersions[k]
			if _, err := commit(memento.CommitSet{Removes: []memento.ReadProof{{Key: k, Version: stale}}}); err != nil {
				t.Fatal(err)
			}
			again, err := commit(create)
			if err != nil {
				t.Fatal(err)
			}
			if v, _ := w.store.CurrentVersion(k); again.NewVersions[k] != v || v <= stale {
				t.Errorf("re-created row at v%d (reported v%d), want above its first incarnation's v%d", v, again.NewVersions[k], stale)
			}
			_, err = commit(memento.CommitSet{Reads: []memento.ReadProof{{Key: k, Version: stale}}})
			if !errors.Is(err, sqlstore.ErrConflict) {
				t.Fatalf("stale proof of the removed incarnation: err = %v, want ErrConflict", err)
			}
		})
	}
}
