package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"edgeejb/internal/appserver"
	"edgeejb/internal/loadgen"
	"edgeejb/internal/obs"
	"edgeejb/internal/trade"
)

// ThroughputOptions configures the multi-client throughput extension:
// the paper factored queuing out ("one virtual client"); this experiment
// puts it back, sweeping the number of concurrent clients at a fixed
// delay and reporting throughput, latency, and failure (conflict
// exhaustion) rates per architecture.
type ThroughputOptions struct {
	// ClientCounts is the concurrency sweep (e.g. 1, 2, 4, 8).
	ClientCounts []int
	// OneWayDelay on the architecture's high-latency path.
	OneWayDelay time.Duration
	// SessionsPerClient measured per client per point.
	SessionsPerClient int
	// WarmupSessions before the first point.
	WarmupSessions int
	// Workload sizes the generators.
	Workload trade.GeneratorConfig
}

// DefaultThroughputOptions returns a laptop-scale concurrency sweep.
func DefaultThroughputOptions() ThroughputOptions {
	return ThroughputOptions{
		ClientCounts:      []int{1, 2, 4, 8},
		OneWayDelay:       2 * time.Millisecond,
		SessionsPerClient: 6,
		WarmupSessions:    4,
		Workload:          trade.GeneratorConfig{Seed: 42, Users: 50, Symbols: 100},
	}
}

// ThroughputPoint is one concurrency level's measurement.
type ThroughputPoint struct {
	Clients       int
	Throughput    float64 // successful interactions/second
	MeanLatencyMs float64
	Failures      int
	Interactions  int
	// Counters is the full counter diff for the point, including
	// labeled children like slicache.conflicts{bean=quote}. Unlike the
	// single-virtual-client sweep, the concurrent run actually races
	// writers, so this is where real conflict forensics come from.
	Counters map[string]uint64
	// Events are the forensic events emitted during this point.
	Events []obs.Event
}

// ThroughputCurve is one architecture's throughput-vs-concurrency curve.
type ThroughputCurve struct {
	Arch   Architecture
	Algo   Algorithm
	Points []ThroughputPoint
}

// RunThroughput builds the topology once and sweeps concurrency levels.
func RunThroughput(ctx context.Context, opts Options, topts ThroughputOptions) (ThroughputCurve, error) {
	if len(topts.ClientCounts) == 0 {
		return ThroughputCurve{}, fmt.Errorf("harness: throughput needs client counts")
	}
	opts.OneWayDelay = topts.OneWayDelay
	topo, err := Build(opts)
	if err != nil {
		return ThroughputCurve{}, err
	}
	defer topo.Close()

	curve := ThroughputCurve{Arch: topo.Arch, Algo: topo.Algo}
	warmup := topts.WarmupSessions
	for _, n := range topts.ClientCounts {
		obsBefore := obs.Default.Snapshot()
		seqBefore := obs.DefaultEvents.Seq()
		res, err := runClients(ctx, topo, n, topts.SessionsPerClient, warmup, topts.Workload)
		if err != nil {
			return ThroughputCurve{}, fmt.Errorf("harness: %d clients: %w", n, err)
		}
		warmup = 0 // warm once
		curve.Points = append(curve.Points, ThroughputPoint{
			Clients:       n,
			Throughput:    res.Throughput,
			MeanLatencyMs: res.Latency.Mean,
			Failures:      res.Failures,
			Interactions:  res.Interactions,
			Counters:      obs.Default.Diff(obsBefore).Counters,
			Events:        obs.DefaultEvents.Since(seqBefore),
		})
	}
	return curve, nil
}

// runClients warms the topology with warmup sessions on one client,
// then drives n fresh concurrent clients, seeded per client, through
// sessions each.
func runClients(ctx context.Context, topo *Topology, n, sessions, warmup int, wl trade.GeneratorConfig) (loadgen.Result, error) {
	if warmup > 0 {
		client := topo.NewWebClient()
		_, err := loadgen.Run(ctx, loadgen.Config{
			Clients:    []*appserver.Client{client},
			Generators: []*trade.Generator{trade.NewGenerator(wl)},
			Sessions:   warmup,
		})
		_ = client.Close()
		if err != nil {
			return loadgen.Result{}, fmt.Errorf("warmup: %w", err)
		}
	}
	clients := make([]*appserver.Client, n)
	for i := range clients {
		clients[i] = topo.NewWebClient()
		defer clients[i].Close()
	}
	return loadgen.Run(ctx, loadgen.Config{
		Clients:    clients,
		Generators: loadgen.Generators(wl, n),
		Sessions:   sessions,
	})
}

// WriteThroughput renders one or more curves as a text table.
func WriteThroughput(w io.Writer, curves []ThroughputCurve) {
	fmt.Fprintln(w, "Extension: throughput under concurrent load (not in the paper;")
	fmt.Fprintln(w, "the paper measured a single virtual client to factor out queuing)")
	for _, c := range curves {
		fmt.Fprintf(w, "\n%s / %s\n", c.Arch, c.Algo)
		fmt.Fprintf(w, "%8s %16s %16s %10s\n", "clients", "interactions/s", "mean ms", "failures")
		for _, p := range c.Points {
			fmt.Fprintf(w, "%8d %16.1f %16.2f %10d\n", p.Clients, p.Throughput, p.MeanLatencyMs, p.Failures)
		}
	}
}
