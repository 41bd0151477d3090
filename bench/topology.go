package main

import (
	"context"
	"fmt"
	"time"

	"edgeejb/internal/appserver"
	"edgeejb/internal/backend"
	"edgeejb/internal/component"
	"edgeejb/internal/dbwire"
	"edgeejb/internal/latency"
	"edgeejb/internal/slicache"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
	"edgeejb/internal/trade"
	"edgeejb/internal/wire"
)

// holdingsPerUser matches cmd/dbserverd's -holdings default.
const holdingsPerUser = 4

// edge is one application server with its data-access stack and the one
// closed-loop client that drives it.
type edge struct {
	db     *dbwire.Client
	mgr    *slicache.Manager // nil on Clients/RAS (JDBC)
	app    *appserver.Server
	client *appserver.Client
	// spans is the edge boundary's recorder: calls from the resource
	// manager into its dbwire client. Nil in untraced runs.
	spans *recorder
}

// topology is one in-process deployment, assembled from the layers'
// public constructors with the options the cmd/ daemons pass: none,
// except the commit shipping the architecture fixes.
type topology struct {
	w       workload
	store   *sqlstore.Store
	backend *backend.Server // archRBES only
	proxy   *latency.Proxy
	edges   []*edge

	// backendSpans and dbSpans record the back-end server's calls into
	// its database client and the database server's calls into the
	// store. Nil in untraced runs.
	backendSpans, dbSpans *recorder

	closers []func()
}

// traceBase is set for a traced topology: the time base its recorders
// share. The zero value builds an untraced topology.
func buildTopology(w workload, seed int64, traceBase time.Time) (t *topology, err error) {
	traced := !traceBase.IsZero()
	t = &topology{w: w}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	wrap := func(c storeapi.Conn, rec **recorder) storeapi.Conn {
		if !traced {
			return c
		}
		*rec = newRecorder(traceBase)
		return newSpanConn(c, *rec)
	}

	// Database tier, as cmd/dbserverd.
	t.store = sqlstore.New()
	t.closers = append(t.closers, t.store.Close)
	trade.Populate(t.store, trade.PopulateConfig{
		Seed: seed, Users: w.users, Symbols: w.symbols, HoldingsPerUser: holdingsPerUser,
	})
	dbServer := dbwire.NewServer(wrap(storeapi.Local(t.store), &t.dbSpans))
	if err := dbServer.Start("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("start db server: %w", err)
	}
	t.closers = append(t.closers, dbServer.Close)

	// What the edges' datastore clients dial, and where the proxy sits.
	edgeTarget := dbServer.Addr()
	switch w.arch {
	case archRBES:
		// Back-end beside the database, as cmd/backendd.
		backendDB := dbwire.Dial(dbServer.Addr())
		t.closers = append(t.closers, func() { _ = backendDB.Close() })
		t.backend = backend.NewServer(wrap(backendDB, &t.backendSpans))
		if err := t.backend.Start("127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("start back-end server: %w", err)
		}
		t.closers = append(t.closers, t.backend.Close)
		if err := t.startProxy(t.backend.Addr()); err != nil {
			return nil, err
		}
		edgeTarget = t.proxy.Addr()
	case archRDB:
		if err := t.startProxy(dbServer.Addr()); err != nil {
			return nil, err
		}
		edgeTarget = t.proxy.Addr()
	}

	// Application-server tier, as cmd/edged.
	registry, err := trade.NewEntityRegistry()
	if err != nil {
		return nil, err
	}
	for i := 0; i < w.edges; i++ {
		e := &edge{db: dbwire.Dial(edgeTarget)}
		t.edges = append(t.edges, e)
		t.closers = append(t.closers, func() { _ = e.db.Close() })
		conn := wrap(e.db, &e.spans)

		var rm component.ResourceManager
		switch w.arch {
		case archRAS:
			rm = component.NewJDBCManager(conn)
		case archRDB:
			e.mgr = slicache.NewManager(conn, slicache.WithShipping(slicache.PerImage))
			rm = e.mgr
		case archRBES:
			e.mgr = slicache.NewManager(conn, slicache.WithShipping(slicache.WholeSet))
			rm = e.mgr
		}
		if e.mgr != nil {
			if err := e.mgr.Start(context.Background()); err != nil {
				return nil, fmt.Errorf("start cache invalidation: %w", err)
			}
			t.closers = append(t.closers, e.mgr.Close)
		}
		e.app = appserver.NewServer(trade.NewService(component.NewContainer(registry, rm)))
		if err := e.app.Start("127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("start app server %d: %w", i, err)
		}
		t.closers = append(t.closers, e.app.Close)
	}

	// Where each web client connects: straight to its edge, or through
	// the proxy to the one remote application server.
	for _, e := range t.edges {
		addr := e.app.Addr()
		if w.arch == archRAS {
			if err := t.startProxy(addr); err != nil {
				return nil, err
			}
			addr = t.proxy.Addr()
		}
		e.client = appserver.NewClient(addr)
		t.closers = append(t.closers, func() { _ = e.client.Close() })
	}
	return t, nil
}

// startProxy starts the delay proxy at 0 ms; the measured phase sets
// the workload's delay once warm-up is done.
func (t *topology) startProxy(target string) error {
	t.proxy = latency.NewProxy(target, 0)
	if err := t.proxy.Start("127.0.0.1:0"); err != nil {
		return fmt.Errorf("start delay proxy: %w", err)
	}
	t.closers = append(t.closers, t.proxy.Close)
	return nil
}

// quiesce waits until no invalidation notice has reached an edge for
// 20 ms. It is called with no client running, so nothing new is
// committed, but the last commits' notices may still be in flight. Two
// callers need them landed. A count snapshot, so that the bytes of a
// late notice fall on the same side of it every time. And close:
// cancelling a dbwire subscription while a notice is being delivered
// panics (dbwire.Client.Subscribe closes the channel its push sink sends
// on: "send on closed channel") — a product bug for a later issue; until
// then the benchmark does not close under a push.
func (t *topology) quiesce() {
	pushes := func() (n uint64) {
		for _, e := range t.edges {
			n += e.db.WireStats().Pushes
		}
		return n
	}
	last, still := pushes(), 0
	for deadline := time.Now().Add(time.Second); still < 10 && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
		if now := pushes(); now == last {
			still++
		} else {
			last, still = now, 0
		}
	}
}

// close tears the deployment down in reverse build order; every server
// and proxy waits for its own goroutines.
func (t *topology) close() {
	t.quiesce()
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
	t.closers = nil
}

// sharedWire sums the transport counters of the clients on the proxied
// hop: the edges' datastore clients, or the web client on Clients/RAS.
func (t *topology) sharedWire() wire.Stats {
	var snaps []wire.Stats
	for _, e := range t.edges {
		if t.w.arch == archRAS {
			snaps = append(snaps, e.client.WireStats())
		} else {
			snaps = append(snaps, e.db.WireStats())
		}
	}
	return wire.MergeStats(snaps...)
}

// requests sums the application servers' served-request counters.
func (t *topology) requests() uint64 {
	var n uint64
	for _, e := range t.edges {
		n += e.app.Requests()
	}
	return n
}
