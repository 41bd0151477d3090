package harness

import (
	"context"
	"fmt"
	"sync"
	"time"

	"edgeejb/internal/appserver"
	"edgeejb/internal/backend"
	"edgeejb/internal/dbwire"
	"edgeejb/internal/deploy"
	"edgeejb/internal/latency"
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
	// Protocol is how every edge ships its work; the zero value is the
	// paper's (deploy.Paper()).
	Protocol deploy.Protocol
	// Shards is the number of database servers the datacenter tier is
	// partitioned into (≥ 1), each with its own back-end server and
	// delay proxy. More than one requires ES/RBES: whole-set commit
	// shipping is the unit the edges' routers route.
	Shards int
	// DBCommitService is the modeled per-commit-set validation service
	// time applied to every database shard (sqlstore.WithCommitServiceTime);
	// zero disables it. The shard-scaling experiment sets it so commit
	// capacity reflects the modeled datacenter rather than the test
	// host's core count.
	DBCommitService time.Duration
}

// lockTimeout is the stores' lock-wait timeout (deadlock resolution),
// the default of cmd/dbserverd's -lock-timeout.
const lockTimeout = 5 * time.Second

// Topology is a fully wired deployment of one architecture.
type Topology struct {
	// Arch and Algo echo the build options.
	Arch Architecture
	Algo Algorithm

	// Stores holds every database shard's store (for stats and test
	// inspection).
	Stores []*sqlstore.Store

	// Backends holds every shard's back-end server (ES/RBES only).
	Backends []*backend.Server

	// AppServers are the application servers; index 0 is the default
	// target for web clients.
	AppServers []*appserver.Server

	// Services are the trade services behind each application server.
	Services []*trade.Service

	// Managers are the SLI cache managers per edge (cached algorithm
	// only, nil entries otherwise).
	Managers []*slicache.Manager

	// DBClients are the datastore clients used by the edge servers, one
	// per edge and shard (for round-trip accounting).
	DBClients []*dbwire.Client

	// proxies are the delay proxies on the high-latency path: one per
	// shard on the edge architectures, one in front of the application
	// server on Clients/RAS.
	proxies []*latency.Proxy

	clientAddr string
	closers    []func()

	// webMu guards webClients: every client the topology hands out is
	// tracked, so Close can close it and the shared client↔server path
	// can be measured from wire.Stats.
	webMu      sync.Mutex
	webClients []*appserver.Client
}

// edgeAlgo names the edge assembly an (architecture, algorithm) cell
// runs: the cached algorithm ships whole commit sets to ES/RBES's
// back-end server and per-image commits to a database.
func edgeAlgo(arch Architecture, algo Algorithm) (deploy.Algo, error) {
	switch algo {
	case AlgJDBC:
		return deploy.JDBC, nil
	case AlgVanillaEJB:
		return deploy.BMP, nil
	case AlgCachedEJB:
		if arch == ESRBES {
			return deploy.SLIBackend, nil
		}
		return deploy.SLIDB, nil
	default:
		return "", fmt.Errorf("harness: invalid algorithm %d", algo)
	}
}

// Build assembles and starts a topology: Shards datacenter pairs, then
// EdgeServers edges over them. Callers must Close it.
func Build(opts Options) (topo *Topology, err error) {
	if opts.EdgeServers < 1 {
		opts.EdgeServers = 1
	}
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	switch opts.Arch {
	case ESRDB, ESRBES, ClientsRAS:
	default:
		return nil, fmt.Errorf("harness: invalid architecture %d", opts.Arch)
	}
	if opts.Arch == ESRBES && opts.Algo != AlgCachedEJB {
		return nil, fmt.Errorf("harness: %s supports only %s", ESRBES, AlgCachedEJB)
	}
	if opts.Arch == ClientsRAS && opts.EdgeServers != 1 {
		return nil, fmt.Errorf("harness: %s has no edge servers to multiply", ClientsRAS)
	}
	algo, err := edgeAlgo(opts.Arch, opts.Algo)
	if err != nil {
		return nil, err
	}

	t := &Topology{Arch: opts.Arch, Algo: opts.Algo}
	defer func() {
		if err != nil {
			t.Close()
		}
	}()

	// Datacenter tier, one pair per shard: a store seeded with the rows
	// the ring assigns it, its database server, a back-end server beside
	// it under ES/RBES, and the delay proxy on the edge architectures.
	targets := make([]string, opts.Shards)
	for i := range targets {
		storeOpts := []sqlstore.Option{sqlstore.WithLockTimeout(lockTimeout)}
		if opts.DBCommitService > 0 {
			storeOpts = append(storeOpts, sqlstore.WithCommitServiceTime(opts.DBCommitService))
		}
		store := sqlstore.New(storeOpts...)
		t.Stores = append(t.Stores, store)
		trade.PopulateShard(store, opts.Populate, opts.Shards, i)
		dbServer := dbwire.NewServer(storeapi.Local(store))
		if err := dbServer.Start("127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("harness: start db server (shard %d): %w", i, err)
		}
		t.closers = append(t.closers, dbServer.Close)
		targets[i] = dbServer.Addr()

		if opts.Arch == ESRBES {
			// Back-end next to the database (low-latency wire).
			backendDB := dbwire.Dial(dbServer.Addr())
			t.closers = append(t.closers, func() { _ = backendDB.Close() })
			be := backend.NewServer(backendDB)
			if err := be.Start("127.0.0.1:0"); err != nil {
				return nil, fmt.Errorf("harness: start back-end server (shard %d): %w", i, err)
			}
			t.closers = append(t.closers, be.Close)
			t.Backends = append(t.Backends, be)
			targets[i] = be.Addr()
		}
		if opts.Arch != ClientsRAS {
			// Delay between the edge servers and the datacenter.
			if targets[i], err = t.startProxy(targets[i], opts.OneWayDelay); err != nil {
				return nil, err
			}
		}
	}

	// Application-server tier.
	for i := 0; i < opts.EdgeServers; i++ {
		edge, err := deploy.StartEdge(context.Background(), "127.0.0.1:0", targets, algo, opts.Protocol)
		if err != nil {
			return nil, fmt.Errorf("harness: edge %d: %w", i, err)
		}
		t.closers = append(t.closers, edge.Close)
		t.DBClients = append(t.DBClients, edge.Clients...)
		t.Managers = append(t.Managers, edge.Manager)
		t.Services = append(t.Services, edge.Service)
		t.AppServers = append(t.AppServers, edge.Server)
	}

	// Where web clients connect: to edge server 0 over a local, fast
	// path, or under Clients/RAS through the delay to the one remote
	// application server.
	t.clientAddr = t.AppServers[0].Addr()
	if opts.Arch == ClientsRAS {
		if t.clientAddr, err = t.startProxy(t.clientAddr, opts.OneWayDelay); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// startProxy puts a delay proxy in front of target and returns the
// proxy's address.
func (t *Topology) startProxy(target string, delay time.Duration) (string, error) {
	p := latency.NewProxy(target, delay)
	if err := p.Start("127.0.0.1:0"); err != nil {
		return "", fmt.Errorf("harness: start delay proxy: %w", err)
	}
	t.closers = append(t.closers, p.Close)
	t.proxies = append(t.proxies, p)
	return p.Addr(), nil
}

// SetDelay changes the one-way delay on the high-latency path.
func (t *Topology) SetDelay(d time.Duration) {
	for _, p := range t.proxies {
		p.SetDelay(d)
	}
}

// SetFaults starts injecting plan's faults on every proxy of the
// high-latency path; nil stops it.
func (t *Topology) SetFaults(plan *latency.FaultPlan) {
	for _, p := range t.proxies {
		p.SetFaults(plan)
	}
}

// FaultStats sums the proxies' injection counters since SetFaults.
func (t *Topology) FaultStats() latency.FaultStats {
	var sum latency.FaultStats
	for _, p := range t.proxies {
		s := p.FaultStats()
		sum.ConnResets += s.ConnResets
		sum.Truncations += s.Truncations
		sum.Stalls += s.Stalls
	}
	return sum
}

// SharedPathStats aggregates transport statistics for the clients on
// the architecture's shared (high-latency) path: web clients for
// Clients/RAS, the edge servers' datastore clients otherwise. It is the
// bytes Figure 8 reports, with round trips and per-op counts.
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

// noticeWait bounds how long a count snapshot waits for invalidation
// notices still in flight.
const noticeWait = 5 * time.Second

// awaitNotices waits until every invalidation notice the stores have
// sent has been applied by its edge's cache manager. A snapshot taken
// after it holds the bytes and the invalidation event of every notice
// the measured commits caused, never those of a notice that lands later:
// a manager counts a notice applied after the wire counted its push and
// after it emitted the event. Every edge subscription ends in exactly
// one store subscriber, sharded or not, so the two sums meet once
// nothing is in flight.
func (t *Topology) awaitNotices() error {
	deadline := time.Now().Add(noticeWait)
	for {
		var sent, applied uint64
		for _, s := range t.Stores {
			sent += s.Stats().NoticesSent
		}
		for _, m := range t.Managers {
			if m != nil {
				applied += m.Stats().NoticesApplied
			}
		}
		if sent == applied {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("harness: %d invalidation notices sent, %d applied after %v", sent, applied, noticeWait)
		}
		time.Sleep(time.Millisecond)
	}
}

// NewWebClient returns a client wired to the architecture's client
// entry point (through the proxy for Clients/RAS, to edge server 0
// otherwise).
func (t *Topology) NewWebClient() *appserver.Client {
	return t.newWebClient(t.clientAddr)
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
	return t.newWebClient(t.AppServers[edge].Addr()), nil
}

func (t *Topology) newWebClient(addr string) *appserver.Client {
	c := appserver.NewClient(addr)
	t.webMu.Lock()
	t.webClients = append(t.webClients, c)
	t.webMu.Unlock()
	return c
}

// Close closes every web client the topology handed out, then tears
// the deployment down in reverse build order.
func (t *Topology) Close() {
	t.webMu.Lock()
	clients := t.webClients
	t.webClients = nil
	t.webMu.Unlock()
	for _, c := range clients {
		_ = c.Close()
	}
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
	t.closers = nil
	for _, s := range t.Stores {
		s.Close()
	}
}
