package trade

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"edgeejb/internal/memento"
	"edgeejb/internal/shard"
	"edgeejb/internal/slicache"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// TestQuoteScatterFinderCache: a finder the affinity hook does not pin,
// every quote, scatters over two shards and is cached at the edge with
// its merged rows. A price change on one of them evicts
// the entry, and so does a new quote, which enters the result set.
func TestQuoteScatterFinderCache(t *testing.T) {
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
	// all checks the finder's rows, in key order, by their prices.
	all := func(wantPrices ...float64) {
		t.Helper()
		dt, err := mgr.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer dt.Abort(ctx)
		rows, err := dt.Query(ctx, memento.Query{Table: TableQuote})
		if err != nil {
			t.Fatal(err)
		}
		var got, want []string
		for _, r := range rows {
			got = append(got, fmt.Sprintf("%s@%v", r.Key.ID, r.Fields["price"].F))
		}
		for i, p := range wantPrices {
			want = append(want, fmt.Sprintf("%s@%v", SymbolID(i+1), p))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("every quote = %v, want %v", got, want)
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
				t.Fatalf("%s did not evict the cached quotes", what)
			}
		}
	}

	all(10, 20, 30, 40)
	all(10, 20, 30, 40)
	if st := mgr.FinderCache().Stats(); st.Hits != 1 {
		t.Fatalf("finder hits = %d, want 1", st.Hits)
	}
	commitEvicts("a price change", memento.CommitSet{Writes: []memento.Memento{quote(1, 50, 1)}})
	all(50, 20, 30, 40)
	commitEvicts("a new quote", memento.CommitSet{Creates: []memento.Memento{quote(5, 45, 0)}})
	all(50, 20, 30, 40, 45)
}
