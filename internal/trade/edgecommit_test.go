package trade

import (
	"context"
	"testing"

	"edgeejb/internal/component"
	"edgeejb/internal/memento"
	"edgeejb/internal/shard"
	"edgeejb/internal/slicache"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// TestShardedReadOnlyEdgeCommit pins, over a two-shard router, which
// read-only actions commit at the edge: one whose reads came from one
// shard access (a lone miss, a finder the affinity hook pins) sends no
// validation, and a finder scattered to both shards, which read them at
// two instants, still sends its validation to every shard it read from.
func TestShardedReadOnlyEdgeCommit(t *testing.T) {
	const shards, symbols = 2, 8
	pop := PopulateConfig{Users: 4, Symbols: symbols, HoldingsPerUser: 2, OpenBalance: 100_000}
	ring := ShardRing(shards)
	conns := make([]*storeapi.CountingConn, shards)
	routed := make([]storeapi.Conn, shards)
	for i := range conns {
		store := sqlstore.New()
		t.Cleanup(store.Close)
		PopulateShard(store, pop, shards, i)
		conns[i] = storeapi.NewCountingConn(storeapi.Local(store))
		routed[i] = conns[i]
	}
	router, err := shard.NewRouter(ring, routed, shard.WithQueryAffinity(QueryShardPlacement))
	if err != nil {
		t.Fatal(err)
	}
	mgr := slicache.NewManager(router, slicache.WithShipping(slicache.WholeSet))
	t.Cleanup(mgr.Close)
	reg, err := NewEntityRegistry()
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(component.NewContainer(reg, mgr))
	ctx := context.Background()
	ops := func() uint64 {
		var n uint64
		for _, c := range conns {
			n += c.Ops()
		}
		return n
	}
	measure := func(name string, action func() error, want uint64) {
		t.Helper()
		before := ops()
		if err := action(); err != nil {
			t.Fatal(err)
		}
		if got := ops() - before; got != want {
			t.Errorf("%s made %d shard calls, want %d", name, got, want)
		}
	}

	quoteShards := make(map[int]bool)
	for i := 0; i < symbols; i++ {
		quoteShards[ring.Of(memento.Key{Table: TableQuote, ID: SymbolID(i)})] = true
	}
	if len(quoteShards) != shards {
		t.Fatalf("quotes live on %d shards, want %d", len(quoteShards), shards)
	}
	// Every quote: the scatter asks both shards, then the read proofs go
	// to both for validation.
	measure("a scattered finder over every quote", func() error {
		return svc.container.ExecuteRetry(ctx, svc.attempts, func(tx *component.Tx) error {
			_, err := tx.FindWhere(memento.Query{Table: TableQuote})
			return err
		})
	}, shards+shards)
	// The pinned finder asks the owning shard alone; nothing follows.
	measure("a pinned HoldingsByAccount", func() error { _, err := svc.Portfolio(ctx, UserID(1)); return err }, 1)
	// Home's lone Account miss is one AutoGet; nothing follows.
	measure("a lone AutoGet miss", func() error { _, err := svc.Home(ctx, UserID(2)); return err }, 1)
}
