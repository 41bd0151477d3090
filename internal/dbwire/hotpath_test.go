package dbwire

import (
	"context"
	"errors"
	"testing"
	"time"

	"edgeejb/internal/latency"
	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// TestProtocolSurface drives every kind of exchange over one client:
// autocommit reads, pessimistic CRUD, batched statements, queries,
// optimistic applies, and conflict attribution.
func TestProtocolSurface(t *testing.T) {
	store, c := newPair(t)
	seed(store, "t", "1", 10)
	ctx := context.Background()

	res, err := c.AutoGet(ctx, "t", "1")
	if err != nil {
		t.Fatalf("AutoGet: %v", err)
	}
	if res.Mem.Fields["v"].Int != 10 || res.Mem.Version != 1 {
		t.Fatalf("AutoGet = %v", res.Mem)
	}

	// Pessimistic CRUD on a pinned stream.
	txn, err := c.Begin(ctx)
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	got, err := txn.GetForUpdate(ctx, "t", "1")
	if err != nil {
		t.Fatalf("GetForUpdate: %v", err)
	}
	m := got.Mem
	m.Fields["v"] = memento.Int(11)
	if err := txn.Put(ctx, m); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := txn.Insert(ctx, memento.Memento{
		Key:    memento.Key{Table: "t", ID: "2"},
		Fields: memento.Fields{"v": memento.Int(5)},
	}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	// Batched statements.
	txn2, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	results, err := storeapi.ExecBatch(ctx, txn2, []storeapi.Stmt{
		{Kind: storeapi.StmtGet, Table: "t", ID: "1"},
		{Kind: storeapi.StmtGet, Table: "t", ID: "2"},
		{Kind: storeapi.StmtCommit},
	})
	if err != nil {
		t.Fatalf("ExecBatch: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("ExecBatch returned %d results, want 3", len(results))
	}
	if v := results[0].Get.Mem.Fields["v"].Int; v != 11 {
		t.Errorf("batched get t/1 = %d, want 11", v)
	}
	if v := results[1].Get.Mem.Fields["v"].Int; v != 5 {
		t.Errorf("batched get t/2 = %d, want 5", v)
	}
	if results[2].Err != nil {
		t.Errorf("batched commit: %v", results[2].Err)
	}

	qres, err := c.AutoQuery(ctx, memento.Query{Table: "t"})
	if err != nil {
		t.Fatalf("AutoQuery: %v", err)
	}
	if len(qres.Mems) != 2 {
		t.Errorf("AutoQuery rows = %d, want 2", len(qres.Mems))
	}

	// Two optimistic applies through ApplyCommitSets, one exchange each.
	out, err := c.ApplyCommitSets(ctx, []memento.CommitSet{
		{Creates: []memento.Memento{{
			Key:    memento.Key{Table: "t", ID: "3"},
			Fields: memento.Fields{"v": memento.Int(30)},
		}}},
		{Creates: []memento.Memento{{
			Key:    memento.Key{Table: "t", ID: "4"},
			Fields: memento.Fields{"v": memento.Int(40)},
		}}},
	})
	if err != nil {
		t.Fatalf("ApplyCommitSets: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("ApplyCommitSets returned %d results, want 2", len(out))
	}
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("set %d: %v", i, r.Err)
		}
		if r.Res.Seq == 0 || len(r.Res.NewVersions) != 1 {
			t.Errorf("set %d: result %+v, want its Seq and one new version", i, r.Res)
		}
	}
	if v, _ := store.CurrentVersion(memento.Key{Table: "t", ID: "3"}); v != out[0].Res.Seq {
		t.Errorf("create t/3 at version %d, want its commit's Seq %d", v, out[0].Res.Seq)
	}

	// Conflict attribution crosses the wire.
	_, err = c.ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{{
			Key:     memento.Key{Table: "t", ID: "1"},
			Version: 1, // stale: the CRUD commit above moved it to 2
			Fields:  memento.Fields{"v": memento.Int(99)},
		}},
	})
	var ce *sqlstore.ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("stale apply error = %v, want *sqlstore.ConflictError", err)
	}
	if ce.Actual != 2 || ce.CommittedAt.IsZero() {
		t.Errorf("conflict %+v lost the winning commit (2) across the wire", ce)
	}
}

// TestFirstAutoGetIsOneRoundTrip pins connection set-up: a fresh
// connection carries no handshake, so the very first data access costs
// exactly one round trip in the raw transport count — the number every
// Figure 6/7 pinned test builds on.
func TestFirstAutoGetIsOneRoundTrip(t *testing.T) {
	store, client := newPair(t)
	seed(store, "t", "1", 10)
	if _, err := client.AutoGet(context.Background(), "t", "1"); err != nil {
		t.Fatal(err)
	}
	stats := client.WireStats()
	if stats.RoundTrips != 1 || stats.Dials != 1 {
		t.Errorf("first AutoGet cost %d round trips over %d dials, want 1 and 1", stats.RoundTrips, stats.Dials)
	}
	if got := client.RoundTrips(); got != 1 {
		t.Errorf("first AutoGet cost %d accounted round trips, want 1", got)
	}
}

// TestBatchIsOneRoundTrip pins the pipelining economics: N statements
// of one transaction in a single frame cost a single round trip.
func TestBatchIsOneRoundTrip(t *testing.T) {
	store, client := newPair(t)
	seed(store, "t", "1", 10)
	seed(store, "t", "2", 20)
	ctx := context.Background()

	txn, err := client.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	before := client.RoundTrips()
	results, err := storeapi.ExecBatch(ctx, txn, []storeapi.Stmt{
		{Kind: storeapi.StmtGet, Table: "t", ID: "1"},
		{Kind: storeapi.StmtGet, Table: "t", ID: "2"},
		{Kind: storeapi.StmtCommit},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := client.RoundTrips() - before; got != 1 {
		t.Errorf("3-statement batch cost %d round trips, want exactly 1", got)
	}
	if len(results) != 3 || results[0].Get.Mem.Fields["v"].Int != 10 ||
		results[1].Get.Mem.Fields["v"].Int != 20 || results[2].Err != nil {
		t.Errorf("batch results wrong: %+v", results)
	}
}

// TestPipelinedBatchFaultOrdering puts the batched path under the
// fault injector: truncated frames and connection resets mid-batch.
// The invariant under chaos is positional integrity — a result slot
// either holds its own statement's answer or an error, never a
// neighbour's — plus clean recovery once the faults stop.
func TestPipelinedBatchFaultOrdering(t *testing.T) {
	store := sqlstore.New(sqlstore.WithLockTimeout(300 * time.Millisecond))
	t.Cleanup(store.Close)
	seed(store, "t", "a", 1)
	seed(store, "t", "b", 2)
	srv := NewServer(storeapi.Local(store))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	proxy := latency.NewProxy(srv.Addr(), 0)
	if err := proxy.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	proxy.SetFaults(&latency.FaultPlan{
		Seed:          42,
		ResetRate:     0.4,
		ResetAfterMax: 2048,
		TruncateRate:  0.05,
	})
	client := Dial(proxy.Addr())
	t.Cleanup(func() { _ = client.Close() })

	keyA := memento.Key{Table: "t", ID: "a"}
	confirmed := 0
	for i := 0; i < 40; i++ {
		err := func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			txn, err := client.Begin(ctx)
			if err != nil {
				return err
			}
			results, err := storeapi.ExecBatch(ctx, txn, []storeapi.Stmt{
				{Kind: storeapi.StmtGetForUpdate, Table: "t", ID: "a"},
				{Kind: storeapi.StmtPut, Mem: memento.Memento{
					Key:    keyA,
					Fields: memento.Fields{"v": memento.Int(int64(100 + i))},
				}},
				{Kind: storeapi.StmtGet, Table: "t", ID: "b"},
				{Kind: storeapi.StmtCommit},
			})
			if err != nil {
				_ = txn.Abort(context.Background())
				return err
			}
			// Positional integrity: slot 0 is row a, slot 2 is row b —
			// under every interleaving the scatter-gather may produce.
			if r := results[0]; r.Err == nil && r.Get.Mem.Key != keyA {
				t.Fatalf("iteration %d: slot 0 answered with %v, want %v", i, r.Get.Mem.Key, keyA)
			}
			if r := results[2]; r.Err == nil && r.Get.Mem.Key != (memento.Key{Table: "t", ID: "b"}) {
				t.Fatalf("iteration %d: slot 2 answered with %v", i, r.Get.Mem.Key)
			}
			if results[3].Err == nil {
				confirmed++
			}
			return nil
		}()
		_ = err // transport errors are the faults doing their job
	}

	// Faults off: the client must reconnect and the store must reflect
	// at least every confirmed commit (version bumps once per commit;
	// commits whose ack was lost may add more).
	proxy.SetFaults(nil)
	res, err := client.AutoGet(context.Background(), "t", "a")
	if err != nil {
		t.Fatalf("post-fault AutoGet: %v", err)
	}
	if confirmed == 0 {
		t.Log("no batch survived the fault schedule; recovery still verified")
	}
	if int(res.Mem.Version) < confirmed+1 {
		t.Errorf("row a at version %d after %d confirmed commits", res.Mem.Version, confirmed)
	}
}

// TestPipelinedBatchCancellation: a cancelled context must fail the
// batch with the context error and leave the transaction abortable —
// the pinned stream goes back to the pool instead of leaking.
func TestPipelinedBatchCancellation(t *testing.T) {
	store, client := newPair(t)
	seed(store, "t", "1", 10)

	txn, err := client.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = storeapi.ExecBatch(ctx, txn, []storeapi.Stmt{
		{Kind: storeapi.StmtGet, Table: "t", ID: "1"},
		{Kind: storeapi.StmtCommit},
	})
	if err == nil {
		t.Fatal("batch on a cancelled context succeeded")
	}
	_ = txn.Abort(context.Background())

	// The client must still be usable afterwards.
	if _, err := client.AutoGet(context.Background(), "t", "1"); err != nil {
		t.Fatalf("client unusable after cancelled batch: %v", err)
	}
}

// BenchmarkPipelinedGets measures an 8-statement read batch on a live
// connection — the shape a portfolio-page interaction takes with
// batching on. CI budgets its allocs/op.
func BenchmarkPipelinedGets(b *testing.B) {
	store := sqlstore.New()
	defer store.Close()
	ids := []string{"0", "1", "2", "3", "4", "5", "6", "7"}
	stmts := make([]storeapi.Stmt, len(ids))
	for i, id := range ids {
		seed(store, "t", id, int64(i))
		stmts[i] = storeapi.Stmt{Kind: storeapi.StmtGet, Table: "t", ID: id}
	}
	srv := NewServer(storeapi.Local(store))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client := Dial(srv.Addr())
	defer client.Close()

	ctx := context.Background()
	txn, err := client.Begin(ctx)
	if err != nil {
		b.Fatal(err)
	}
	defer txn.Abort(ctx)
	if _, err := storeapi.ExecBatch(ctx, txn, stmts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := storeapi.ExecBatch(ctx, txn, stmts)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(stmts) {
			b.Fatalf("got %d results", len(results))
		}
	}
}
