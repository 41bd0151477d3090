package harness

import (
	"context"
	"fmt"
	"net"

	"edgeejb/internal/appserver"
	"edgeejb/internal/backend"
	"edgeejb/internal/component"
	"edgeejb/internal/dbwire"
	"edgeejb/internal/latency"
	"edgeejb/internal/memento"
	"edgeejb/internal/shard"
	"edgeejb/internal/slicache"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
	"edgeejb/internal/trade"
)

// buildSharded assembles the partitioned datacenter tier: N independent
// back-end/database pairs, each behind its own delay proxy, with every
// edge server routing by key over one dbwire connection per shard.
// Single-shard commit sets keep the classic one-frame ES/RBES fast
// path; cross-shard write sets run edge-coordinated two-phase commit.
func buildSharded(opts Options) (topo *Topology, err error) {
	if opts.Arch != ESRBES {
		return nil, fmt.Errorf("harness: sharding requires %s (got %s)", ESRBES, opts.Arch)
	}
	if opts.Algo != AlgCachedEJB {
		return nil, fmt.Errorf("harness: sharding requires %s (got %s)", AlgCachedEJB, opts.Algo)
	}

	t := &Topology{Arch: opts.Arch, Algo: opts.Algo, Shards: opts.Shards}
	defer func() {
		if err != nil {
			t.Close()
		}
	}()

	t.Ring = shard.NewRing(opts.Shards, shard.WithPlacement(trade.ShardPlacement))

	// Database + back-end tier, one pair per shard. Every shard derives
	// the identical population and keeps exactly the rows the ring
	// assigns to it; disjoint transaction-ID bases keep the merged
	// invalidation stream's own-commit filtering sound.
	rows := trade.PopulationRows(opts.Populate)
	shardAddrs := make([]string, opts.Shards)
	for i := 0; i < opts.Shards; i++ {
		storeOpts := []sqlstore.Option{
			sqlstore.WithLockTimeout(opts.LockTimeout),
			sqlstore.WithTxIDBase(uint64(i) << 40),
		}
		if opts.DBCommitService > 0 {
			storeOpts = append(storeOpts, sqlstore.WithCommitServiceTime(opts.DBCommitService))
		}
		store := sqlstore.New(storeOpts...)
		t.Stores = append(t.Stores, store)
		_ = store.CreateIndex(trade.TableHolding, "accountID")
		var owned []memento.Memento
		for _, m := range rows {
			if t.Ring.Of(m.Key) == i {
				owned = append(owned, m)
			}
		}
		store.Seed(owned...)

		dbServer := dbwire.NewServer(storeapi.Local(store))
		if err := dbServer.Start("127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("harness: start db server (shard %d): %w", i, err)
		}
		t.closers = append(t.closers, dbServer.Close)

		backendDB := dbwire.Dial(dbServer.Addr())
		t.closers = append(t.closers, func() { _ = backendDB.Close() })
		be := backend.NewServer(backendDB)
		if err := be.Start("127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("harness: start back-end server (shard %d): %w", i, err)
		}
		t.closers = append(t.closers, be.Close)
		t.Backends = append(t.Backends, be)

		proxy := latency.NewProxy(be.Addr(), opts.OneWayDelay)
		if err := proxy.Start("127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("harness: start delay proxy (shard %d): %w", i, err)
		}
		t.closers = append(t.closers, proxy.Close)
		t.proxies = append(t.proxies, proxy)
		shardAddrs[i] = proxy.Addr()
	}
	t.Store = t.Stores[0]
	t.Backend = t.Backends[0]
	t.Proxy = t.proxies[0]

	// Application-server tier: each edge gets a router over one
	// connection per shard, feeding the cache's whole-set commit path.
	registry, err := trade.NewEntityRegistry()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	for e := 0; e < opts.EdgeServers; e++ {
		conns := make([]storeapi.Conn, opts.Shards)
		for i, addr := range shardAddrs {
			dbClient := dbwire.Dial(addr)
			t.DBClients = append(t.DBClients, dbClient)
			t.closers = append(t.closers, func() { _ = dbClient.Close() })
			conns[i] = dbClient
		}
		router, err := shard.NewRouter(t.Ring, conns,
			shard.WithQueryAffinity(trade.QueryShardPlacement))
		if err != nil {
			return nil, fmt.Errorf("harness: edge %d router: %w", e, err)
		}

		cacheOpts := append([]slicache.ManagerOption{slicache.WithShipping(slicache.WholeSet)},
			opts.CacheOptions...)
		mgr := slicache.NewManager(router, cacheOpts...)
		if err := mgr.Start(ctx); err != nil {
			return nil, fmt.Errorf("harness: start cache manager (edge %d): %w", e, err)
		}
		t.closers = append(t.closers, mgr.Close)
		t.Managers = append(t.Managers, mgr)

		svc := trade.NewService(component.NewContainer(registry, mgr))
		t.Services = append(t.Services, svc)
		app := appserver.NewServer(svc)
		if err := app.Start("127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("harness: start app server %d: %w", e, err)
		}
		t.closers = append(t.closers, app.Close)
		t.AppServers = append(t.AppServers, app)
	}

	t.clientAddr = t.AppServers[0].Addr()
	t.clientDial = func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	return t, nil
}
