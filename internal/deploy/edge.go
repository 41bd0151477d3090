// Package deploy assembles one edge application server from the
// addresses of its datastore targets. It is the one place that decides
// how the parts fit — which client the cache talks through, which
// resource manager serves the container, how commits are shipped — so
// the in-process harness and the standalone cmd/edged run the same
// product path.
package deploy

import (
	"context"
	"fmt"

	"edgeejb/internal/appserver"
	"edgeejb/internal/component"
	"edgeejb/internal/dbwire"
	"edgeejb/internal/shard"
	"edgeejb/internal/slicache"
	"edgeejb/internal/storeapi"
	"edgeejb/internal/trade"
)

// Algo is an edge's data-access algorithm, spelled as cmd/edged's -algo
// values.
type Algo string

const (
	// JDBC is hand-optimized direct access (pessimistic).
	JDBC Algo = "jdbc"
	// BMP is vanilla EJB entity beans (pessimistic, uncached).
	BMP Algo = "bmp"
	// SLIDB is cached EJBs, combined-servers: one commit statement per
	// memento image, straight to a database server.
	SLIDB Algo = "sli-db"
	// SLIBackend is cached EJBs, split-servers: whole-set commits through
	// a back-end server.
	SLIBackend Algo = "sli-backend"
)

// Edge is one running application server and its data-access stack.
type Edge struct {
	// Clients are the datastore clients, one per target in target order.
	Clients []*dbwire.Client
	// Manager is the SLI cache manager; nil under JDBC and BMP.
	Manager *slicache.Manager
	// Service is the Trade application behind Server.
	Service *trade.Service
	// Server is the application server web clients connect to.
	Server *appserver.Server
}

// Protocol is how an edge ships its work to the datacenter. Its zero
// value, Paper(), is the protocol the paper measures: one round trip per
// statement on the combined-servers commit (§4.4), serial JDBC and BMP
// statements, and no finder cache.
type Protocol struct {
	// Batch makes every manager on a pinned stream — JDBC, BMP and the
	// SLIDB commit — ship the independent statements of one exchange as
	// a single statement batch.
	Batch bool
	// FinderCache caches committed finder results at the edge
	// (slicache.WithFinderCache); it applies to SLIDB and SLIBackend.
	FinderCache bool
}

// Paper returns the paper's protocol, the zero Protocol.
func Paper() Protocol { return Protocol{} }

// Shipped returns the protocol cmd/edged runs: statement batching and
// the finder cache, the library's defaults.
func Shipped() Protocol { return Protocol{Batch: true, FinderCache: true} }

// StartEdge dials every target, assembles the data-access stack algo
// names over them, ships its work as p says and serves Trade on addr.
// targets are database servers or back-end servers, ordered by shard
// index; several targets are the shards of one datacenter tier and need
// SLIBackend, because a whole commit set is the unit the shard router
// routes. The cache's commit shipping follows from algo and p.Batch.
func StartEdge(ctx context.Context, addr string, targets []string, algo Algo, p Protocol) (_ *Edge, err error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("deploy: an edge needs at least one target")
	}
	if len(targets) > 1 && algo != SLIBackend {
		return nil, fmt.Errorf("deploy: %d sharded targets require %s, not %s: whole-set commit shipping is the unit the router routes",
			len(targets), SLIBackend, algo)
	}
	e := &Edge{}
	defer func() {
		if err != nil {
			e.Close()
		}
	}()
	for _, target := range targets {
		e.Clients = append(e.Clients, dbwire.Dial(target))
	}

	// One target is served by its client directly, so the unsharded
	// deployment pays for no routing layer; a router exists only over
	// several shards (single-shard fast-path commits, cross-shard 2PC).
	var conn storeapi.Conn = e.Clients[0]
	if len(targets) > 1 {
		conns := make([]storeapi.Conn, len(e.Clients))
		for i, c := range e.Clients {
			conns[i] = c
		}
		conn, err = shard.NewRouter(trade.ShardRing(len(targets)), conns,
			shard.WithQueryAffinity(trade.QueryShardPlacement))
		if err != nil {
			return nil, err
		}
	}

	var rm component.ResourceManager
	switch algo {
	case JDBC:
		rm = component.NewJDBCManager(conn, component.WithBatching(p.Batch))
	case BMP:
		rm = component.NewBMPManager(conn, component.WithBatching(p.Batch))
	case SLIDB, SLIBackend:
		shipping := slicache.PerImage
		switch {
		case algo == SLIBackend:
			shipping = slicache.WholeSet
		case !p.Batch:
			shipping = slicache.PerStatement
		}
		e.Manager = slicache.NewManager(conn,
			slicache.WithShipping(shipping), slicache.WithFinderCache(p.FinderCache))
		if err := e.Manager.Start(ctx); err != nil {
			return nil, fmt.Errorf("deploy: start cache invalidation: %w", err)
		}
		rm = e.Manager
	default:
		return nil, fmt.Errorf("deploy: unknown algorithm %q (want %s | %s | %s | %s)", algo, JDBC, BMP, SLIDB, SLIBackend)
	}

	registry, err := trade.NewEntityRegistry()
	if err != nil {
		return nil, err
	}
	e.Service = trade.NewService(component.NewContainer(registry, rm))
	srv := appserver.NewServer(e.Service)
	if err := srv.Start(addr); err != nil {
		return nil, fmt.Errorf("deploy: start app server: %w", err)
	}
	e.Server = srv
	return e, nil
}

// Close stops the server, then the cache's invalidation stream, then
// the datastore clients.
func (e *Edge) Close() {
	if e.Server != nil {
		e.Server.Close()
	}
	if e.Manager != nil {
		e.Manager.Close()
	}
	for _, c := range e.Clients {
		_ = c.Close()
	}
}
