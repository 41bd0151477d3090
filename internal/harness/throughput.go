package harness

import (
	"context"
	"fmt"
	"io"
)

// The throughput extension: the paper factored queuing out ("one
// virtual client"); this experiment puts it back, sweeping the number of
// concurrent clients at a fixed delay and reporting throughput, latency,
// and failure (conflict exhaustion) rates per architecture.

// ThroughputPoint is one concurrency level's measurement. Unlike the
// single-virtual-client sweep, the concurrent pass actually races
// writers, so this is where real conflict forensics come from.
type ThroughputPoint struct {
	Clients int
	Pass
}

// ThroughputCurve is one architecture's throughput-vs-concurrency curve.
type ThroughputCurve struct {
	Pair
	Points []ThroughputPoint
}

// RunThroughput builds the topology once at opts.OneWayDelay, warms it
// once, and measures one pass per client count: that many fresh
// concurrent clients, each driving scale.Sessions sessions.
func RunThroughput(ctx context.Context, opts Options, scale Scale, clientCounts []int) (ThroughputCurve, error) {
	if len(clientCounts) == 0 {
		return ThroughputCurve{}, fmt.Errorf("harness: throughput needs client counts")
	}
	topo, err := Build(opts)
	if err != nil {
		return ThroughputCurve{}, err
	}
	defer topo.Close()
	if err := topo.warm(ctx, scale); err != nil {
		return ThroughputCurve{}, err
	}
	curve := ThroughputCurve{Pair: Pair{topo.Arch, topo.Algo}}
	for _, n := range clientCounts {
		pass, err := topo.Measure(ctx, topo.clients(n, scale))
		if err != nil {
			return ThroughputCurve{}, fmt.Errorf("harness: %d clients: %w", n, err)
		}
		curve.Points = append(curve.Points, ThroughputPoint{Clients: n, Pass: pass})
	}
	return curve, nil
}

// WriteThroughput renders one or more curves as a text table.
func WriteThroughput(w io.Writer, curves []ThroughputCurve) {
	fmt.Fprintln(w, "Extension: throughput under concurrent load (not in the paper;")
	fmt.Fprintln(w, "the paper measured a single virtual client to factor out queuing)")
	for _, c := range curves {
		fmt.Fprintf(w, "\n%s\n", c.Pair)
		fmt.Fprintf(w, "%8s %16s %16s %10s\n", "clients", "interactions/s", "mean ms", "failures")
		for _, p := range c.Points {
			fmt.Fprintf(w, "%8d %16.1f %16.2f %10d\n", p.Clients, p.Load.Throughput, p.MeanLatencyMs(), p.Load.Failures)
		}
	}
}
