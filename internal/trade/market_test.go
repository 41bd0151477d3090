package trade

import (
	"context"
	"reflect"
	"testing"
	"time"

	"edgeejb/internal/memento"
	"edgeejb/internal/shard"
	"edgeejb/internal/slicache"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// TestTopQuotesScatterFinderCache: TopQuotes(2) scattered over two
// shards is cached at the edge with the footprint of its merged, capped
// rows. A price change on a quote the limit cut evicts the entry, and so
// does a new quote: either can enter the top two.
func TestTopQuotesScatterFinderCache(t *testing.T) {
	ring := shard.NewRing(2, shard.WithPlacement(ShardPlacement))
	stores := make([]*sqlstore.Store, 2)
	conns := make([]storeapi.Conn, 2)
	for i := range stores {
		stores[i] = sqlstore.New()
		defer stores[i].Close()
		conns[i] = storeapi.Local(stores[i])
	}
	router, err := shard.NewRouter(ring, conns, shard.WithQueryAffinity(QueryShardPlacement))
	if err != nil {
		t.Fatal(err)
	}
	quote := func(n int, price float64, version uint64) memento.Memento {
		m := (&Quote{Symbol: SymbolID(n), Company: "c", Price: price}).ToMemento()
		m.Version = version
		return m
	}
	var perShard [2]int
	for n := 1; n <= 4; n++ {
		m := quote(n, float64(10*n), 0)
		s := ring.Of(m.Key)
		stores[s].Seed(m)
		perShard[s]++
	}
	if perShard[0] == 0 || perShard[1] == 0 {
		t.Fatalf("quotes per shard = %v, want both shards holding some", perShard)
	}

	ctx := context.Background()
	mgr := slicache.NewManager(router, slicache.WithShipping(slicache.WholeSet), slicache.WithFinderCache(true))
	defer mgr.Close()
	if err := mgr.Start(ctx); err != nil {
		t.Fatal(err)
	}
	top := func(want ...int) {
		t.Helper()
		dt, err := mgr.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer dt.Abort(ctx)
		rows, err := dt.Query(ctx, TopQuotes(2))
		if err != nil {
			t.Fatal(err)
		}
		var got, wantIDs []string
		for _, r := range rows {
			got = append(got, r.Key.ID)
		}
		for _, n := range want {
			wantIDs = append(wantIDs, SymbolID(n))
		}
		if !reflect.DeepEqual(got, wantIDs) {
			t.Fatalf("TopQuotes(2) = %v, want %v", got, wantIDs)
		}
	}
	commitEvicts := func(what string, cs memento.CommitSet) {
		t.Helper()
		if mgr.FinderCache().Len() != 1 {
			t.Fatalf("before %s: %d cached finder results, want 1", what, mgr.FinderCache().Len())
		}
		if _, err := router.ApplyCommitSet(ctx, cs); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(2 * time.Second); mgr.FinderCache().Len() != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s did not evict the cached top quotes", what)
			}
		}
	}

	top(4, 3)
	top(4, 3)
	if st := mgr.FinderCache().Stats(); st.Hits != 1 {
		t.Fatalf("finder hits = %d, want 1", st.Hits)
	}
	commitEvicts("a price change on a cut quote", memento.CommitSet{Writes: []memento.Memento{quote(1, 50, 1)}})
	top(1, 4)
	commitEvicts("a new quote", memento.CommitSet{Creates: []memento.Memento{quote(5, 45, 0)}})
	top(1, 5)
}
