package harness

import (
	"time"

	"edgeejb/internal/latency"
	"edgeejb/internal/loadgen"
	"edgeejb/internal/obs"
	"edgeejb/internal/stats"
	"edgeejb/internal/wire"
)

// The fixtures below fabricate measured results so the report writers
// can be tested without running anything. Every derived figure (a per-
// interaction rate, a mean) is consistent with the raw counts it would
// be derived from, so a fixture can be rebuilt from raw counts alone.

// span fabricates a span histogram of n observations averaging mean.
func span(n uint64, mean time.Duration) obs.HistSnapshot {
	return obs.HistSnapshot{Count: n, Sum: time.Duration(n) * mean, Max: 2 * mean}
}

// fixtureEvents is one measurement's forensic events: three conflicts
// on two keys and two invalidation notices.
func fixtureEvents() []obs.Event {
	return []obs.Event{
		{Type: obs.EventConflict, Op: "sell", Bean: "quote", Key: "quote/s-1", Trace: 1, OtherTrace: 2, Age: 3 * time.Millisecond, Time: time.Unix(1000, 0)},
		{Type: obs.EventConflict, Op: "sell", Bean: "quote", Key: "quote/s-1", Trace: 3, OtherTrace: 4, Time: time.Unix(1001, 0)},
		{Type: obs.EventConflict, Op: "", Bean: "account", Key: "account/u-1", Time: time.Unix(1002, 0)},
		{Type: obs.EventInvalidation, Keys: 2, Evicted: 1, Latency: time.Millisecond, OtherTrace: 9, Time: time.Unix(1003, 0)},
		{Type: obs.EventInvalidation, Keys: 1, OtherTrace: 10, Time: time.Unix(1004, 0)},
	}
}

// spans keys span histograms by registry name.
func spans(byName map[string]obs.HistSnapshot) map[string]obs.HistSnapshot {
	out := make(map[string]obs.HistSnapshot, len(byName))
	for name, h := range byName {
		out["span."+name] = h
	}
	return out
}

// fixtureCounters is one measurement's counter diff, with per-bean
// cache children.
func fixtureCounters() map[string]uint64 {
	return map[string]uint64{
		"slicache.hits{bean=quote}":     30,
		"slicache.misses{bean=quote}":   10,
		"slicache.hits{bean=account}":   5,
		"slicache.misses{bean=account}": 5,
		"slicache.requests":             50,
	}
}

// fakeEvaluation fabricates an Evaluation: every cell a two-point sweep
// with latency slope, shared-path traffic, spans, per-action latencies
// and, at the second point, forensics.
func fakeEvaluation() *Evaluation {
	mkSweep := func(arch Architecture, algo Algorithm, slope float64) Sweep {
		points := []Point{
			{OneWayDelayMs: 0, Pass: Pass{
				Load: loadgen.Result{Interactions: 100, Latency: stats.Summary{N: 100, Mean: 0.2}},
				Wire: wire.Stats{RoundTrips: 400, BytesSent: 30000, BytesReceived: 10000},
				Metrics: obs.Snapshot{Histograms: spans(map[string]obs.HistSnapshot{
					"client.interaction": span(100, 200*time.Microsecond),
					"edge.request":       span(100, 150*time.Microsecond),
				})},
			}},
			{OneWayDelayMs: 2, Pass: Pass{
				Load: loadgen.Result{
					Interactions: 100,
					Latency:      stats.Summary{N: 100, Mean: 0.2 + 2*slope},
					PerAction: map[string]stats.Summary{
						"login": {N: 10, Mean: 3.5},
						"buy":   {N: 5, Mean: 7.25},
					},
				},
				Wire: wire.Stats{RoundTrips: 410, BytesSent: 30500, BytesReceived: 10500},
				Metrics: obs.Snapshot{
					Counters: fixtureCounters(),
					Histograms: spans(map[string]obs.HistSnapshot{
						"client.interaction": span(100, time.Duration((0.2+2*slope)*float64(time.Millisecond))),
						"edge.request":       span(100, 1200*time.Microsecond),
						"slicache.commit":    span(40, 2500*time.Microsecond),
					}),
				},
				Events: fixtureEvents(),
			}},
		}
		return Sweep{
			Pair:   Pair{arch, algo},
			Points: points,
			Fit:    stats.Fit{Slope: slope, Intercept: 0.2, R2: 0.999},
		}
	}
	eval := &Evaluation{Sweeps: make(map[Pair]Sweep)}
	for _, pair := range AllPairs() {
		slope := 2.0
		switch {
		case pair.Arch == ESRDB && pair.Algo == AlgVanillaEJB:
			slope = 23.6
		case pair.Arch == ESRDB && pair.Algo == AlgCachedEJB:
			slope = 13.0
		case pair.Arch == ESRDB:
			slope = 9.4
		case pair.Arch == ESRBES:
			slope = 3.1
		}
		eval.Sweeps[pair] = mkSweep(pair.Arch, pair.Algo, slope)
	}
	return eval
}

// result fabricates a load result of n interactions at a throughput
// and mean latency.
func result(n int, perSecond, meanMs float64, failures int) loadgen.Result {
	return loadgen.Result{Interactions: n, Throughput: perSecond, Latency: stats.Summary{N: n, Mean: meanMs}, Failures: failures}
}

// throughputFixture fabricates two concurrency curves; the ES/RBES
// curve's concurrent point carries forensics.
func throughputFixture() []ThroughputCurve {
	return []ThroughputCurve{
		{
			Pair: Pair{ClientsRAS, AlgJDBC},
			Points: []ThroughputPoint{
				{Clients: 1, Pass: Pass{Load: result(66, 90.25, 11.5, 0)}},
				{Clients: 2, Pass: Pass{Load: result(132, 170.5, 12.25, 0)}},
			},
		},
		{
			Pair: Pair{ESRBES, AlgCachedEJB},
			Points: []ThroughputPoint{
				{Clients: 1, Pass: Pass{Load: result(66, 120.5, 7.1, 0),
					Metrics: obs.Snapshot{Counters: map[string]uint64{"slicache.hits{bean=quote}": 12}}}},
				{Clients: 4, Pass: Pass{Load: result(262, 300.2, 13.9, 2),
					Metrics: obs.Snapshot{Counters: fixtureCounters()}, Events: fixtureEvents()}},
			},
		},
	}
}

// shardFixture fabricates a one- and a two-shard point. The fast path
// is whatever the edges committed that took neither multi-shard path.
func shardFixture() []ShardScalingPoint {
	commits := func(n uint64) map[string]obs.HistSnapshot {
		return map[string]obs.HistSnapshot{"span.slicache.commit": {Count: n}}
	}
	return []ShardScalingPoint{
		{
			Shards:          1,
			Pass:            Pass{Load: result(1000, 480.5, 49.75, 0), Metrics: obs.Snapshot{Histograms: commits(900)}},
			PerShardCommits: map[int]uint64{0: 900},
		},
		{
			Shards: 2,
			Pass: Pass{Load: result(999, 850.25, 28.5, 1), Metrics: obs.Snapshot{
				Counters: map[string]uint64{
					"slicache.conflicts":     5,
					"shard.2pc_commits":      150,
					"shard.2pc_aborts":       3,
					"shard.readonly_commits": 120,
					"shard.scatter_queries":  40,
				},
				Histograms: commits(975),
			}},
			PerShardCommits: map[int]uint64{1: 520, 0: 480},
		},
	}
}

// faultFixture fabricates a clean and a faulted pass for two cells,
// one of which lost sessions.
func faultFixture() []FaultReport {
	sessions := func(completed, abandoned, retries int, meanMs float64) Pass {
		return Pass{Load: loadgen.Result{
			Completed: completed, Abandoned: abandoned, Retries: retries,
			Interactions: 11 * completed, Latency: stats.Summary{N: 11 * completed, Mean: meanMs},
		}}
	}
	rbesFaulted := sessions(80, 0, 3, 4.5)
	rbesFaulted.Wire.Retries = 17
	return []FaultReport{
		{
			Pair:    Pair{ClientsRAS, AlgJDBC},
			Clean:   sessions(80, 0, 0, 10),
			Faulted: sessions(78, 2, 9, 12.5),
			Faults:  latency.FaultStats{ConnResets: 5, Truncations: 1, Stalls: 2},
		},
		{
			Pair:         Pair{ESRBES, AlgCachedEJB},
			Clean:        sessions(80, 0, 0, 4),
			Faulted:      rbesFaulted,
			Faults:       latency.FaultStats{ConnResets: 7, Stalls: 3},
			Resubscribes: 2,
		},
	}
}
