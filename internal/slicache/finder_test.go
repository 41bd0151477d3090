package slicache

import (
	"context"
	"slices"
	"testing"

	"edgeejb/internal/memento"
)

// TestFinderBasicResultSet: the finder runs against the persistent
// store and returns matching rows.
func TestFinderBasicResultSet(t *testing.T) {
	e := newEnv(t)
	e.store.Seed(holding("h1", "u1"), holding("h2", "u1"), holding("h3", "u2"))
	ctx := context.Background()

	dt := e.begin(t)
	defer dt.Abort(ctx)
	got, err := dt.Query(ctx, byAcct("u1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Key.ID != "h1" || got[1].Key.ID != "h2" {
		t.Fatalf("finder = %v", got)
	}
	// Finder results populate the common store.
	if _, ok := e.mgr.CommonStore().Get(memento.Key{Table: "t", ID: "h1"}); !ok {
		t.Error("finder results not cached")
	}
}

// TestFinderDoesNotOverlayOwnUpdates: "the runtime ensures that result
// set elements that were cached prior to the custom finder invocation
// are not overlaid with the current persistent state" (§2.2).
func TestFinderDoesNotOverlayOwnUpdates(t *testing.T) {
	e := newEnv(t)
	e.store.Seed(holding("h1", "u1"))
	ctx := context.Background()

	dt := e.begin(t)
	defer dt.Abort(ctx)
	m, err := dt.Load(ctx, memento.Key{Table: "t", ID: "h1"})
	if err != nil {
		t.Fatal(err)
	}
	m.Fields["acct"] = memento.String("u1")
	m.Fields["qty"] = memento.Int(42) // tx-local edit
	if err := dt.Store(ctx, m); err != nil {
		t.Fatal(err)
	}
	got, err := dt.Query(ctx, byAcct("u1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("finder = %v", got)
	}
	if got[0].Fields["qty"].Int != 42 {
		t.Error("finder overlaid the transaction's own update with persistent state")
	}
}

// TestFinderSeesOwnCreatesAndHidesOwnRemoves: the finder evaluates
// against the transient home, so created beans appear and removed beans
// do not — even though the persistent store says otherwise. The result
// is in key order, a created bean keyed before the stored rows first.
func TestFinderSeesOwnCreatesAndHidesOwnRemoves(t *testing.T) {
	e := newEnv(t)
	e.store.Seed(holding("h1", "u1"), holding("h2", "u1"))
	ctx := context.Background()

	dt := e.begin(t)
	defer dt.Abort(ctx)
	for _, id := range []string{"hNew", "h0"} {
		if err := dt.Create(ctx, holding(id, "u1")); err != nil {
			t.Fatal(err)
		}
	}
	if err := dt.Remove(ctx, memento.Key{Table: "t", ID: "h1"}); err != nil {
		t.Fatal(err)
	}
	got, err := dt.Query(ctx, byAcct("u1"))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(got))
	for _, m := range got {
		ids = append(ids, m.Key.ID)
	}
	if want := []string{"h0", "h2", "hNew"}; !slices.Equal(ids, want) {
		t.Fatalf("finder ids = %v, want %v", ids, want)
	}
}

// TestFinderUpdateMovesRowOutOfResultSet: a bean updated so it no longer
// matches must not be returned by the transient finder.
func TestFinderUpdateMovesRowOutOfResultSet(t *testing.T) {
	e := newEnv(t)
	e.store.Seed(holding("h1", "u1"))
	ctx := context.Background()

	dt := e.begin(t)
	defer dt.Abort(ctx)
	key := memento.Key{Table: "t", ID: "h1"}
	m, err := dt.Load(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	m.Fields["acct"] = memento.String("u9")
	if err := dt.Store(ctx, m); err != nil {
		t.Fatal(err)
	}
	got, err := dt.Query(ctx, byAcct("u1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("moved-out bean still in result set: %v", got)
	}
	got, err = dt.Query(ctx, byAcct("u9"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("moved-in bean missing: %v", got)
	}
}

// TestFinderPhantoms: repeating a finder in one transaction CAN grow the
// result set when other transactions commit matching rows — the
// repeatable-read (not serializable) isolation the paper documents
// (§2.2). Beans already read keep their before-images. The phantom is
// the paper's, so the manager runs without the finder cache, as
// deploy.Paper() builds it: the cache would serve the repeat from the
// first result until the commit's notice evicted it.
func TestFinderPhantoms(t *testing.T) {
	e := newEnv(t, WithFinderCache(false))
	e.store.Seed(holding("h1", "u1"))
	ctx := context.Background()

	dt := e.begin(t)
	defer dt.Abort(ctx)
	got, err := dt.Query(ctx, byAcct("u1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("first finder = %v", got)
	}
	// Another transaction commits a new matching row AND updates h1.
	if _, err := e.store.ApplyCommitSet(ctx, memento.CommitSet{
		Creates: []memento.Memento{holding("h2", "u1")},
		Writes: []memento.Memento{{
			Key:     memento.Key{Table: "t", ID: "h1"},
			Version: 1,
			Fields:  memento.Fields{"acct": memento.String("u1"), "marker": memento.Int(1)},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	got, err = dt.Query(ctx, byAcct("u1"))
	if err != nil {
		t.Fatal(err)
	}
	// The phantom h2 appears...
	if len(got) != 2 {
		t.Fatalf("second finder = %v, want phantom h2 included", got)
	}
	// ...but h1 keeps the state this transaction first observed.
	for _, m := range got {
		if m.Key.ID == "h1" {
			if !m.Fields["marker"].IsZero() {
				t.Error("h1's before-image was overlaid by the repeated finder")
			}
		}
	}
}

// TestFinderResultsEnterReadSet: beans brought in by a finder are
// validated at commit like direct reads.
func TestFinderResultsEnterReadSet(t *testing.T) {
	e := newEnv(t)
	e.store.Seed(holding("h1", "u1"), row("w", 1))
	ctx := context.Background()

	dt := e.begin(t)
	if _, err := dt.Query(ctx, byAcct("u1")); err != nil {
		t.Fatal(err)
	}
	// Concurrent update of the finder-read bean.
	if _, err := e.store.ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{{
			Key:     memento.Key{Table: "t", ID: "h1"},
			Version: 1,
			Fields:  memento.Fields{"acct": memento.String("u1"), "x": memento.Int(1)},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	// Write something so the commit validates remotely.
	m, err := dt.Load(ctx, key("w"))
	if err != nil {
		t.Fatal(err)
	}
	m.Fields["n"] = memento.Int(2)
	if err := dt.Store(ctx, m); err != nil {
		t.Fatal(err)
	}
	if err := dt.Commit(ctx); err == nil {
		t.Fatal("stale finder read not validated at commit")
	}
}
