package slicache

import (
	"context"
	"testing"

	"edgeejb/internal/component"
	"edgeejb/internal/memento"
)

// TestReturnedImagesAreTheCallers: a transaction's entries share their
// images with the common store's fill, the finder cache and the commit
// set, so every memento Load, LoadMany and Query return must be the
// caller's own. The test scribbles over each one it gets — on a miss, a
// hit in the transaction's own store, a common-store hit and a
// finder-cache hit — and then requires the transaction, its commit set,
// the common store, the finder cache and later transactions to still
// see the originals.
func TestReturnedImagesAreTheCallers(t *testing.T) {
	e := newEnv(t, WithFinderCache(true))
	ctx := context.Background()
	fields := func(acct string, n int64) memento.Fields {
		return memento.Fields{"acct": memento.String(acct), "n": memento.Int(n)}
	}
	a, b, c, d := key("a"), key("b"), key("c"), key("d")
	e.store.Seed(
		memento.Memento{Key: a, Fields: fields("x", 1)},
		memento.Memento{Key: b, Fields: fields("y", 2)},
		memento.Memento{Key: c, Fields: fields("y", 3)},
	)
	want := map[memento.Key]memento.Fields{a: fields("x", 1), b: fields("y", 2), c: fields("y", 3)}

	check := func(where string, m memento.Memento) {
		t.Helper()
		if !m.Fields.Equal(want[m.Key]) {
			t.Fatalf("%s: %s reads %v, want %v", where, m.Key, m.Fields, want[m.Key])
		}
	}
	scribble := func(m memento.Memento) {
		for f := range m.Fields {
			m.Fields[f] = memento.String("scribbled")
		}
		m.Fields["extra"] = memento.Int(-1)
	}
	// readAll loads a alone, b and c together (b twice), and queries
	// acct y, which matches b and c; it checks and then scribbles over
	// every memento it gets.
	readAll := func(where string, dt component.DataTx) {
		t.Helper()
		m, err := dt.Load(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		got := []memento.Memento{m}
		mems, err := dt.(*sliTx).LoadMany(ctx, []memento.Key{b, c, b})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, mems...)
		rows, err := dt.Query(ctx, byAcct("y"))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("%s: query returned %d rows, want 2", where, len(rows))
		}
		got = append(got, rows...)
		for _, m := range got {
			check(where, m)
			scribble(m)
		}
	}
	cached := func(where string) {
		t.Helper()
		for k := range want {
			m, ok := e.mgr.CommonStore().Get(k)
			if !ok {
				t.Fatalf("%s: common store lost %s", where, k)
			}
			check(where+", common store", m)
		}
		fc := e.mgr.FinderCache()
		rows, _, ok := fc.get(fc.key(byAcct("y")))
		if !ok || len(rows) != 2 {
			t.Fatalf("%s: finder cache holds %v (%v), want b and c", where, rows, ok)
		}
		for _, m := range rows {
			check(where+", finder cache", m)
		}
	}

	// Misses, then hits in the transaction's own store.
	tx := e.begin(t)
	readAll("miss", tx)
	readAll("transaction hit", tx)
	cached("after the misses")

	// A stored and a created image are copied in, so scribbling over
	// the argument afterwards changes neither the transaction nor its
	// commit set.
	upd := memento.Memento{Key: a, Fields: fields("x", 10)}
	if err := tx.Store(ctx, upd); err != nil {
		t.Fatal(err)
	}
	scribble(upd)
	created := memento.Memento{Key: d, Fields: fields("z", 4)}
	if err := tx.Create(ctx, created); err != nil {
		t.Fatal(err)
	}
	scribble(created)
	want[a], want[d] = fields("x", 10), fields("z", 4)
	cs := tx.(*sliTx).buildCommitSet()
	if len(cs.Writes) != 1 || len(cs.Creates) != 1 || len(cs.Reads) != 2 {
		t.Fatalf("commit set = %+v, want 2 reads, 1 write and 1 create", cs)
	}
	// The write ships the one cell that differs from a's before-image,
	// which the scribbling must not have reached, and laid over that
	// image it reads as the stored one.
	if w := cs.Writes[0]; !w.Delta || !w.Fields.Equal(memento.Fields{"n": memento.Int(10)}) {
		t.Fatalf("commit set write = %v (changed cells %v), want n alone", w, w.Delta)
	}
	check("commit set write", cs.Writes[0].Apply(fields("x", 1)))
	check("commit set create", cs.Creates[0])
	readAll("transaction hit after the writes", tx)
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	cached("after the commit")

	// Common-store and finder-cache hits, then a third transaction over
	// what the second one scribbled on.
	for _, where := range []string{"cache hit", "cache hit again"} {
		tx := e.begin(t)
		hits := e.mgr.FinderCache().Stats().Hits
		readAll(where, tx)
		if e.mgr.FinderCache().Stats().Hits != hits+1 {
			t.Fatalf("%s: the query was not a finder-cache hit", where)
		}
		readAll(where+", then a transaction hit", tx)
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		cached(where)
	}
	if st := e.mgr.CommonStore().Stats(); st.Hits == 0 {
		t.Fatalf("no common-store hit: %+v", st)
	}
}
