package main

import (
	"fmt"
	"time"

	"edgeejb/internal/trade"
)

// arch is where the high-latency path sits (the paper's §3).
type arch int

const (
	// archRBES: cached-EJB edges commit whole sets to a remote back-end
	// server; the delay proxy sits between edge and back-end.
	archRBES arch = iota
	// archRDB: cached-EJB edges commit image by image straight to a
	// remote database; the proxy sits between edge and database.
	archRDB
	// archRAS: clients reach a remote JDBC application server; the proxy
	// sits between client and application server.
	archRAS
)

// workload is one named traffic mix on one topology. The sizes were
// chosen so a round holds at least 200 interactions (ten samples lie
// beyond its p95) and a default run holds at least three rounds.
type workload struct {
	name string
	// why is the one-line reason BENCHMARK.json records.
	why   string
	arch  arch
	delay time.Duration // one-way, applied after warm-up
	// edges is the number of edge servers and, the loop being closed
	// with one client per edge, the number of clients.
	edges          int
	users, symbols int
	mix            trade.Mix // zero value means trade.DefaultMix
	// sessions per client per round, and per edge during warm-up.
	roundSessions  int
	warmupSessions int
}

// churnMix is write-heavy so that each edge's commits keep invalidating
// the other's cached beans. Away from home an edge's buys become profile
// updates, and a user with a full portfolio sells instead of buying (see
// stream.rewrite), so what the system sees is some 24 updates, 15 buys
// and 18 sells in a hundred steps; a fifth of the sells find nothing left
// to sell and only read.
var churnMix = trade.Mix{Home: 5, Account: 5, AccountUpdate: 10, Portfolio: 10, Quote: 10, Buy: 40, Sell: 20}

var workloads = []workload{
	{
		name: "rbes-lan",
		why:  "ES/RBES at 0 ms on a hot population: latency is the CPU and allocation cost of every layer on the path",
		arch: archRBES, edges: 1, users: 20, symbols: 40,
		roundSessions: 100, warmupSessions: 60,
	},
	{
		name: "rbes-wan",
		why:  "ES/RBES at 2 ms on a wide population: round trips on the cache miss path decide latency, CPU work should not",
		arch: archRBES, delay: 2 * time.Millisecond, edges: 1, users: 2000, symbols: 100,
		roundSessions: 30, warmupSessions: 40,
	},
	{
		name: "rdb-wan",
		why:  "ES/RDB at 1 ms: per-image commit over pinned streams, the most round trips per interaction of any topology",
		arch: archRDB, delay: time.Millisecond, edges: 1, users: 20, symbols: 40,
		roundSessions: 30, warmupSessions: 60,
	},
	{
		name: "ras-wan",
		why:  "Clients/RAS at 2 ms, the paper's reference: one round trip and one whole page per interaction on the slow hop",
		arch: archRAS, delay: 2 * time.Millisecond, edges: 1, users: 20, symbols: 40,
		roundSessions: 30, warmupSessions: 60,
	},
	{
		name: "rbes-churn",
		why:  "two ES/RBES edges, write-heavy at 0 ms on two busy cores: invalidation fan-out, refetch and group commit all run",
		arch: archRBES, edges: 2, users: 32, symbols: 16, mix: churnMix,
		roundSessions: 100, warmupSessions: 40,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
