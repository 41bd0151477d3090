package slicache

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"edgeejb/internal/component"
	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// The tests below hold the read-only edge commit to serialisability
// with two rows whose sum every writer keeps: a reader that commits
// must have seen that sum, whichever way it committed.

const invariantSum = 1000

// pairEnv is two managers, as two edges, over one store holding the
// pair a, b with a + b = invariantSum, invalidation on.
func pairEnv(t *testing.T) [2]*Manager {
	t.Helper()
	store := sqlstore.New()
	t.Cleanup(store.Close)
	store.Seed(row("a", invariantSum/2), row("b", invariantSum/2))
	var mgrs [2]*Manager
	for i := range mgrs {
		mgrs[i] = NewManager(storeapi.Local(store), WithShipping(WholeSet))
		t.Cleanup(mgrs[i].Close)
		if err := mgrs[i].Start(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return mgrs
}

// move transfers d from a to b in one transaction on mgr.
func move(ctx context.Context, mgr *Manager, d int64) error {
	dt, err := mgr.Begin(ctx)
	if err != nil {
		return err
	}
	mems, err := dt.(component.MultiLoader).LoadMany(ctx, []memento.Key{key("a"), key("b")})
	if err != nil {
		_ = dt.Abort(ctx)
		return err
	}
	mems[0].Fields["n"] = memento.Int(mems[0].Fields["n"].Int - d)
	mems[1].Fields["n"] = memento.Int(mems[1].Fields["n"].Int + d)
	for _, m := range mems {
		if err := dt.Store(ctx, m); err != nil {
			_ = dt.Abort(ctx)
			return err
		}
	}
	return dt.Commit(ctx)
}

// sum adds up the pair's values among rows.
func sum(rows ...memento.Memento) int64 {
	var s int64
	for _, m := range rows {
		s += m.Fields["n"].Int
	}
	return s
}

// TestEdgeCommitStraddledReadsValidate: a read-only transaction whose
// two reads straddle a write sees a torn sum. Whether its first read
// was a cache hit or a second miss, it made more than one access, so it
// validates and loses.
func TestEdgeCommitStraddledReadsValidate(t *testing.T) {
	ctx := context.Background()
	for _, warm := range []bool{true, false} {
		mgrs := pairEnv(t)
		if warm {
			dt, _ := mgrs[0].Begin(ctx)
			if _, err := dt.Load(ctx, key("a")); err != nil {
				t.Fatal(err)
			}
			_ = dt.Abort(ctx)
		}
		dt, _ := mgrs[0].Begin(ctx)
		a, err := dt.Load(ctx, key("a"))
		if err != nil {
			t.Fatal(err)
		}
		if err := move(ctx, mgrs[1], 7); err != nil {
			t.Fatal(err)
		}
		b, err := dt.Load(ctx, key("b")) // a miss: mgrs[0] never cached b
		if err != nil {
			t.Fatal(err)
		}
		if sum(a, b) == invariantSum {
			t.Fatalf("warm=%v: reads straddling a write saw the invariant sum", warm)
		}
		tx := dt.(*sliTx)
		if tx.cacheServed != warm {
			t.Fatalf("warm=%v: first read served by the cache = %v", warm, tx.cacheServed)
		}
		if tx.provenByItsRead(tx.buildCommitSet()) {
			t.Fatalf("warm=%v: a transaction of two reads counts as proven by one", warm)
		}
		if err := dt.Commit(ctx); !errors.Is(err, sqlstore.ErrConflict) {
			t.Fatalf("warm=%v: commit after a torn read = %v, want a conflict", warm, err)
		}
	}
}

// TestEdgeCommitInvariant races writers moving value between a and b on
// both edges against three kinds of reader: a finder over both rows and
// a lone miss, which commit at the edge, and a cache hit followed by a
// miss, which must validate and may lose. Every reader that commits saw
// the invariant sum (the lone miss sees one row: its versions only move
// forward).
func TestEdgeCommitInvariant(t *testing.T) {
	const rounds = 150
	ctx := context.Background()
	mgrs := pairEnv(t)

	var edge, validated, lost atomic.Int64
	// read runs one read-only transaction, commits it, and hands what a
	// committed one read to check.
	read := func(mgr *Manager, body func(component.DataTx) ([]memento.Memento, error), check func([]memento.Memento)) {
		dt, err := mgr.Begin(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		rows, err := body(dt)
		if err != nil {
			_ = dt.Abort(ctx)
			if !errors.Is(err, sqlstore.ErrConflict) {
				t.Error(err)
			}
			return
		}
		tx := dt.(*sliTx)
		local := tx.provenByItsRead(tx.buildCommitSet())
		switch err := dt.Commit(ctx); {
		case err == nil && local:
			edge.Add(1)
		case err == nil:
			validated.Add(1)
		case errors.Is(err, sqlstore.ErrConflict) && !local:
			lost.Add(1)
			return
		default:
			t.Errorf("read-only commit (local %v): %v", local, err)
			return
		}
		check(rows)
	}
	invariant := func(what string) func([]memento.Memento) {
		return func(rows []memento.Memento) {
			if len(rows) != 2 || sum(rows...) != invariantSum {
				t.Errorf("%s committed a torn read: %d rows summing to %d", what, len(rows), sum(rows...))
			}
		}
	}

	var wg sync.WaitGroup
	run := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				f()
			}
		}()
	}
	for i, mgr := range mgrs {
		rng := rand.New(rand.NewSource(int64(i)))
		run(func() {
			if err := move(ctx, mgr, rng.Int63n(21)-10); err != nil && !errors.Is(err, sqlstore.ErrConflict) {
				t.Error(err)
			}
		})
		run(func() {
			read(mgr, func(dt component.DataTx) ([]memento.Memento, error) {
				return dt.Query(ctx, memento.Query{Table: "t"})
			}, invariant("a finder"))
		})
		var last uint64
		run(func() {
			mgr.CommonStore().Invalidate(key("a"))
			read(mgr, func(dt component.DataTx) ([]memento.Memento, error) {
				m, err := dt.Load(ctx, key("a"))
				return []memento.Memento{m}, err
			}, func(rows []memento.Memento) {
				if v := rows[0].Version; v < last {
					t.Errorf("a lone miss read version %d after %d", v, last)
				} else {
					last = v
				}
			})
		})
		run(func() {
			read(mgr, func(dt component.DataTx) ([]memento.Memento, error) {
				a, err := dt.Load(ctx, key("a"))
				if err != nil {
					return nil, err
				}
				mgr.CommonStore().Invalidate(key("b"))
				b, err := dt.Load(ctx, key("b"))
				return []memento.Memento{a, b}, err
			}, invariant("a hit and a miss"))
		})
	}
	wg.Wait()
	t.Logf("read-only commits: %d at the edge, %d validated, %d lost validation", edge.Load(), validated.Load(), lost.Load())
	if edge.Load() == 0 || validated.Load() == 0 {
		t.Errorf("the race exercised %d edge and %d validated commits; want both", edge.Load(), validated.Load())
	}
}
