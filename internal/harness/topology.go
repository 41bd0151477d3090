package harness

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"edgeejb/internal/appserver"
	"edgeejb/internal/backend"
	"edgeejb/internal/component"
	"edgeejb/internal/dbwire"
	"edgeejb/internal/latency"
	"edgeejb/internal/shard"
	"edgeejb/internal/slicache"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
	"edgeejb/internal/trade"
	"edgeejb/internal/wire"
)

// Architecture selects where the high-latency path sits (§3).
type Architecture int

// The three architectures of §3.
const (
	// ESRDB: edge servers share a remote database; delay between
	// application servers and the database (Figure 3).
	ESRDB Architecture = iota + 1
	// ESRBES: cache-enhanced edge servers share a remote back-end
	// server; delay between edge servers and the back-end (Figure 4).
	ESRBES
	// ClientsRAS: clients access a remote application server; delay
	// between clients and the application server (Figure 5).
	ClientsRAS
)

// String names the architecture as the paper does.
func (a Architecture) String() string {
	switch a {
	case ESRDB:
		return "ES/RDB"
	case ESRBES:
		return "ES/RBES"
	case ClientsRAS:
		return "Clients/RAS"
	default:
		return "invalid"
	}
}

// Algorithm selects the data-access implementation (§4.3).
type Algorithm int

// The three algorithms compared in the evaluation.
const (
	// AlgJDBC is the hand-optimized pure-JDBC implementation.
	AlgJDBC Algorithm = iota + 1
	// AlgVanillaEJB is non-cached BMP entity beans (Trade2 EJB-ALT).
	AlgVanillaEJB
	// AlgCachedEJB is the SLI caching framework (the contribution).
	AlgCachedEJB
)

// String names the algorithm as the paper does.
func (a Algorithm) String() string {
	switch a {
	case AlgJDBC:
		return "JDBC"
	case AlgVanillaEJB:
		return "Vanilla EJBs"
	case AlgCachedEJB:
		return "Cached EJBs"
	default:
		return "invalid"
	}
}

// Options configures a topology build.
type Options struct {
	// Arch is the architecture; required.
	Arch Architecture
	// Algo is the data-access algorithm; required. ES/RBES supports only
	// AlgCachedEJB ("this architecture is meaningless to anything but a
	// EJB-caching architecture", §3).
	Algo Algorithm
	// OneWayDelay is the initial delay injected on the high-latency
	// path; adjustable later via Topology.SetDelay.
	OneWayDelay time.Duration
	// EdgeServers is the number of edge application servers (≥ 1). Only
	// the edge architectures use more than one.
	EdgeServers int
	// Populate sizes the initial Trade database.
	Populate trade.PopulateConfig
	// CacheOptions are extra slicache options (ablations). Shipping is
	// set by the architecture and must not be overridden here.
	CacheOptions []slicache.ManagerOption
	// LockTimeout overrides the datastore lock-wait timeout.
	LockTimeout time.Duration
	// Batch makes the pessimistic managers (JDBC, BMP) coalesce
	// independent statements of one interaction into multi-statement
	// frames. Off by default so existing round-trip accounting holds.
	Batch bool
	// Shards partitions the datacenter tier into N independent
	// backend/database pairs behind a key-routing edge (≤ 1 keeps the
	// classic single-pair topology byte-for-byte). Sharding requires
	// ES/RBES with the cached algorithm: whole-set commit shipping is
	// the unit the router routes.
	Shards int
	// DBCommitService is the modeled per-commit-set validation service
	// time applied to every database shard (sqlstore.WithCommitServiceTime);
	// zero disables it. The shard-scaling experiment sets it so commit
	// capacity reflects the modeled datacenter rather than the test
	// host's core count.
	DBCommitService time.Duration
}

// Topology is a fully wired deployment of one architecture.
type Topology struct {
	// Arch and Algo echo the build options.
	Arch Architecture
	Algo Algorithm

	// Store is the persistent datastore (for stats and test inspection).
	// Sharded topologies alias it to shard 0; see Stores.
	Store *sqlstore.Store

	// Stores holds every database shard's store (len == Shards; nil on
	// unsharded topologies).
	Stores []*sqlstore.Store

	// Ring is the key→shard map (sharded topologies only).
	Ring *shard.Ring

	// Shards echoes the build option (0 or 1 = unsharded).
	Shards int

	// Proxy is the delay proxy on the high-latency path. Sharded
	// topologies alias it to shard 0's proxy; SetDelay covers all.
	Proxy *latency.Proxy

	proxies []*latency.Proxy

	// Backend is the back-end server (ES/RBES only, nil otherwise;
	// sharded topologies alias it to shard 0 — see Backends).
	Backend *backend.Server

	// Backends holds every shard's back-end server (sharded only).
	Backends []*backend.Server

	// AppServers are the application servers; index 0 is the default
	// target for web clients.
	AppServers []*appserver.Server

	// Services are the trade services behind each application server.
	Services []*trade.Service

	// Managers are the SLI cache managers per edge (cached algorithm
	// only, nil entries otherwise).
	Managers []*slicache.Manager

	// DBClients are the datastore clients used by each edge server (for
	// round-trip accounting in tests).
	DBClients []*dbwire.Client

	clientAddr string
	clientDial appserver.DialFunc
	closers    []func()

	// webMu guards webClients: every client handed out by NewWebClient
	// (and NewWebClientFor under Clients/RAS) is tracked so the shared
	// client↔server path can be measured from wire.Stats.
	webMu      sync.Mutex
	webClients []*appserver.Client
}

// Build assembles and starts a topology. Callers must Close it.
func Build(opts Options) (topo *Topology, err error) {
	if opts.EdgeServers < 1 {
		opts.EdgeServers = 1
	}
	if opts.Arch == ESRBES && opts.Algo != AlgCachedEJB {
		return nil, fmt.Errorf("harness: %s supports only %s", ESRBES, AlgCachedEJB)
	}
	if opts.Arch == ClientsRAS && opts.EdgeServers != 1 {
		return nil, fmt.Errorf("harness: %s has no edge servers to multiply", ClientsRAS)
	}
	if opts.LockTimeout <= 0 {
		opts.LockTimeout = 5 * time.Second
	}
	if opts.Shards > 1 {
		return buildSharded(opts)
	}

	t := &Topology{Arch: opts.Arch, Algo: opts.Algo}
	defer func() {
		if err != nil {
			t.Close()
		}
	}()

	// Database tier.
	storeOpts := []sqlstore.Option{sqlstore.WithLockTimeout(opts.LockTimeout)}
	if opts.DBCommitService > 0 {
		storeOpts = append(storeOpts, sqlstore.WithCommitServiceTime(opts.DBCommitService))
	}
	t.Store = sqlstore.New(storeOpts...)
	trade.Populate(t.Store, opts.Populate)
	dbServer := dbwire.NewServer(storeapi.Local(t.Store))
	if err := dbServer.Start("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("harness: start db server: %w", err)
	}
	t.closers = append(t.closers, dbServer.Close)

	// Delay proxy placement and the address edge servers dial.
	edgeDBAddr := ""
	switch opts.Arch {
	case ESRDB:
		// Delay between application servers and the database.
		if err := t.startProxy(dbServer.Addr(), opts.OneWayDelay); err != nil {
			return nil, err
		}
		edgeDBAddr = t.Proxy.Addr()

	case ESRBES:
		// Back-end next to the database (low-latency wire); delay
		// between the edge servers and the back-end.
		backendDB := dbwire.Dial(dbServer.Addr())
		t.closers = append(t.closers, func() { _ = backendDB.Close() })
		t.Backend = backend.NewServer(backendDB)
		if err := t.Backend.Start("127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("harness: start back-end server: %w", err)
		}
		t.closers = append(t.closers, t.Backend.Close)
		if err := t.startProxy(t.Backend.Addr(), opts.OneWayDelay); err != nil {
			return nil, err
		}
		edgeDBAddr = t.Proxy.Addr()

	case ClientsRAS:
		// Application server next to the database; delay between the
		// clients and the application server (proxy started after the
		// app server below).
		edgeDBAddr = dbServer.Addr()

	default:
		return nil, fmt.Errorf("harness: invalid architecture %d", opts.Arch)
	}

	// Application-server tier.
	registry, err := trade.NewEntityRegistry()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	for i := 0; i < opts.EdgeServers; i++ {
		dbClient := dbwire.Dial(edgeDBAddr)
		t.DBClients = append(t.DBClients, dbClient)
		t.closers = append(t.closers, func() { _ = dbClient.Close() })

		var mgrOpts []component.ManagerOption
		if opts.Batch {
			mgrOpts = append(mgrOpts, component.WithBatching(true))
		}
		var rm component.ResourceManager
		var mgr *slicache.Manager
		switch opts.Algo {
		case AlgJDBC:
			rm = component.NewJDBCManager(dbClient, mgrOpts...)
		case AlgVanillaEJB:
			rm = component.NewBMPManager(dbClient, mgrOpts...)
		case AlgCachedEJB:
			shipping := slicache.PerImage
			if opts.Arch == ESRBES {
				shipping = slicache.WholeSet
			}
			cacheOpts := append([]slicache.ManagerOption{slicache.WithShipping(shipping)},
				opts.CacheOptions...)
			mgr = slicache.NewManager(dbClient, cacheOpts...)
			if err := mgr.Start(ctx); err != nil {
				return nil, fmt.Errorf("harness: start cache manager: %w", err)
			}
			t.closers = append(t.closers, mgr.Close)
			rm = mgr
		default:
			return nil, fmt.Errorf("harness: invalid algorithm %d", opts.Algo)
		}
		t.Managers = append(t.Managers, mgr)

		svc := trade.NewService(component.NewContainer(registry, rm))
		t.Services = append(t.Services, svc)
		app := appserver.NewServer(svc)
		if err := app.Start("127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("harness: start app server %d: %w", i, err)
		}
		t.closers = append(t.closers, app.Close)
		t.AppServers = append(t.AppServers, app)
	}

	// Where web clients connect.
	switch opts.Arch {
	case ClientsRAS:
		if err := t.startProxy(t.AppServers[0].Addr(), opts.OneWayDelay); err != nil {
			return nil, err
		}
		t.clientAddr = t.Proxy.Addr()
	default:
		// Edge architectures: the client/edge path is local and fast.
		t.clientAddr = t.AppServers[0].Addr()
	}
	t.clientDial = func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	return t, nil
}

func (t *Topology) startProxy(target string, delay time.Duration) error {
	t.Proxy = latency.NewProxy(target, delay)
	if err := t.Proxy.Start("127.0.0.1:0"); err != nil {
		return fmt.Errorf("harness: start delay proxy: %w", err)
	}
	t.closers = append(t.closers, t.Proxy.Close)
	return nil
}

// SetDelay changes the one-way delay on the high-latency path (every
// shard's proxy on sharded topologies).
func (t *Topology) SetDelay(d time.Duration) {
	if len(t.proxies) > 0 {
		for _, p := range t.proxies {
			p.SetDelay(d)
		}
		return
	}
	t.Proxy.SetDelay(d)
}

// SharedPathCounter returns the byte counter for the shared
// (high-latency) path — the quantity Figure 8 reports.
func (t *Topology) SharedPathCounter() *latency.Counter { return t.Proxy.Counter() }

// SharedPathStats aggregates transport statistics for the clients on
// the architecture's shared (high-latency) path: web clients for
// Clients/RAS, the edge servers' datastore clients otherwise. Unlike
// SharedPathCounter it also carries round trips and per-op latency.
func (t *Topology) SharedPathStats() wire.Stats {
	var snaps []wire.Stats
	switch t.Arch {
	case ClientsRAS:
		t.webMu.Lock()
		for _, c := range t.webClients {
			snaps = append(snaps, c.WireStats())
		}
		t.webMu.Unlock()
	default:
		for _, c := range t.DBClients {
			snaps = append(snaps, c.WireStats())
		}
	}
	return wire.MergeStats(snaps...)
}

// NewWebClient returns a client wired to the architecture's client
// entry point (through the proxy for Clients/RAS, to edge server 0
// otherwise).
func (t *Topology) NewWebClient() *appserver.Client {
	c := appserver.NewClient(t.clientAddr, appserver.WithDialer(t.clientDial))
	t.webMu.Lock()
	t.webClients = append(t.webClients, c)
	t.webMu.Unlock()
	return c
}

// NewWebClientFor returns a client pinned to a specific edge server
// (edge architectures with several edges).
func (t *Topology) NewWebClientFor(edge int) (*appserver.Client, error) {
	if edge < 0 || edge >= len(t.AppServers) {
		return nil, fmt.Errorf("harness: no edge server %d", edge)
	}
	if t.Arch == ClientsRAS {
		return t.NewWebClient(), nil
	}
	return appserver.NewClient(t.AppServers[edge].Addr()), nil
}

// Close tears the whole topology down in reverse build order.
func (t *Topology) Close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
	t.closers = nil
	if len(t.Stores) > 0 {
		for _, s := range t.Stores {
			s.Close()
		}
		return
	}
	if t.Store != nil {
		t.Store.Close()
	}
}
