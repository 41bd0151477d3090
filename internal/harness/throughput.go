package harness

import (
	"fmt"
	"io"
	"time"
)

// The throughput extension: the paper factored queuing out ("one
// virtual client"); this experiment puts it back, sweeping the number of
// concurrent clients at a fixed delay and reporting throughput, latency,
// and failure (conflict exhaustion) rates per architecture. A curve is
// a Sweep with no fit. Unlike the single-virtual-client sweep, the
// concurrent steps actually race writers, so this is where real
// conflict forensics come from.

// ClientSteps is a throughput curve's steps at delay: one per client
// count, each of that many fresh clients. Every count, 1 included,
// gets fresh clients: the warm-up's client would carry its generator's
// position into the curve and move which registrations collide.
func ClientSteps(delay time.Duration, counts []int) []Step {
	steps := make([]Step, len(counts))
	for i, n := range counts {
		steps[i] = Step{
			Label:         fmt.Sprintf("%d clients", n),
			OneWayDelayMs: float64(delay) / float64(time.Millisecond),
			Clients:       n,
		}
	}
	return steps
}

// WriteThroughput renders one or more curves as a text table.
func WriteThroughput(w io.Writer, curves []Sweep) {
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
