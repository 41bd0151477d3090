package dbwire

import (
	"context"
	"errors"
	"testing"
	"time"

	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
)

// TestAutocommitReadsTakeNoLock: an autocommit read is the cache
// runtime's short independent access (§2.3), which needs the committed
// rows of one instant and nothing else. Row k is held two ways, by a
// JDBC transaction that selected it for update and buffered a put, and
// by a prepared 2PC participant that writes it; under either hold an
// AutoGet of k and an AutoQuery of its table answer at once with k's
// committed row. Commit-time validation still locks: a read-only set
// that proves k's old version fails while the participant is in doubt,
// and again once it commits.
func TestAutocommitReadsTakeNoLock(t *testing.T) {
	store, client := newPair(t)
	seed(store, "t", "k", 1)
	seed(store, "t", "other", 2)
	ctx := context.Background()
	key := memento.Key{Table: "t", ID: "k"}
	v1, err := store.CurrentVersion(key)
	if err != nil {
		t.Fatal(err)
	}

	// readsCommitted requires both autocommit reads to return k at
	// version want with value v, each within 100 ms.
	readsCommitted := func(hold string, want uint64, v int64) {
		t.Helper()
		gctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
		defer cancel()
		start := time.Now()
		got, err := client.AutoGet(gctx, "t", "k")
		if err != nil {
			t.Errorf("%s: AutoGet after %v: %v", hold, time.Since(start), err)
		} else if got.Mem.Version != want || got.Mem.Fields["v"].Int != v {
			t.Errorf("%s: AutoGet = %+v, want the committed row at v%d with v=%d", hold, got.Mem, want, v)
		}
		qctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
		defer cancel()
		start = time.Now()
		res, err := client.AutoQuery(qctx, memento.Query{Table: "t"})
		if err != nil {
			t.Errorf("%s: AutoQuery after %v: %v", hold, time.Since(start), err)
		} else if len(res.Mems) != 2 || res.Mems[0].Key != key || res.Mems[0].Version != want || res.Mems[0].Fields["v"].Int != v {
			t.Errorf("%s: AutoQuery = %+v, want k's committed row at v%d with v=%d first of two", hold, res.Mems, want, v)
		}
	}

	// A JDBC transaction holds k exclusively, with its table intent lock,
	// until it ends.
	txn, err := client.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.GetForUpdate(ctx, "t", "k"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Put(ctx, memento.Memento{Key: key, Fields: memento.Fields{"v": memento.Int(10)}}); err != nil {
		t.Fatal(err)
	}
	readsCommitted("JDBC transaction", v1, 1)
	if err := txn.Abort(ctx); err != nil {
		t.Fatal(err)
	}

	// A prepared participant holds k until its coordinator decides.
	write := memento.CommitSet{Writes: []memento.Memento{{Key: key, Version: v1, Fields: memento.Fields{"v": memento.Int(20)}}}}
	if err := client.Prepare(ctx, "g", write); err != nil {
		t.Fatal(err)
	}
	readsCommitted("prepared participant", v1, 1)
	proof := memento.CommitSet{Reads: []memento.ReadProof{{Key: key, Version: v1}}}
	if _, err := client.ApplyCommitSet(ctx, proof); !errors.Is(err, sqlstore.ErrConflict) {
		t.Errorf("proof of k's old version while the participant is in doubt: %v, want ErrConflict", err)
	}
	committed, err := client.CommitPrepared(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	readsCommitted("committed participant", committed.Seq, 20)
	if _, err := client.ApplyCommitSet(ctx, proof); !errors.Is(err, sqlstore.ErrConflict) {
		t.Errorf("proof of k's old version after the participant committed: %v, want ErrConflict", err)
	}
}
