package harness

import (
	"fmt"
	"io"
	"sort"

	"edgeejb/internal/trade"
	"edgeejb/internal/wire"
)

// WriteActionBreakdown renders mean per-action latency at the largest
// swept delay for the given sweeps — the per-action view behind the
// aggregate curves: it shows WHERE each architecture pays its round
// trips (e.g. under vanilla EJBs, portfolio and sell dominate because
// of the N+1 finder loads).
func WriteActionBreakdown(w io.Writer, sweeps []Sweep) {
	if len(sweeps) == 0 {
		return
	}
	fmt.Fprintln(w, "Per-action mean latency (ms) at the largest swept delay")
	header := fmt.Sprintf("%-14s", "action")
	for _, s := range sweeps {
		header += fmt.Sprintf(" %24s", s.Arch.String()+" "+s.Algo.String())
	}
	fmt.Fprintln(w, header)

	actions := actionNames(sweeps)
	for _, action := range actions {
		line := fmt.Sprintf("%-14s", action)
		for _, s := range sweeps {
			if len(s.Points) == 0 {
				line += fmt.Sprintf(" %24s", "-")
				continue
			}
			last := s.Points[len(s.Points)-1]
			sum, ok := last.Load.PerAction[action]
			if !ok || sum.N == 0 {
				line += fmt.Sprintf(" %24s", "-")
				continue
			}
			line += fmt.Sprintf(" %24.2f", sum.Mean)
		}
		fmt.Fprintln(w, line)
	}
}

// actionNames returns the union of measured action names in Table 1
// order, with any extras appended alphabetically.
func actionNames(sweeps []Sweep) []string {
	seen := make(map[string]bool)
	for _, s := range sweeps {
		for _, p := range s.Points {
			for name := range p.Load.PerAction {
				seen[name] = true
			}
		}
	}
	var ordered []string
	for _, a := range trade.Actions {
		if seen[a.String()] {
			ordered = append(ordered, a.String())
			delete(seen, a.String())
		}
	}
	var rest []string
	for name := range seen {
		rest = append(rest, name)
	}
	sort.Strings(rest)
	return append(ordered, rest...)
}

// WriteWireOps renders where each sweep's shared-path traffic goes, by
// wire op (wire.Stats.Ops): the round trips and bytes per interaction
// each op accounts for, over every delay point, largest bytes first.
// dbwire labels a commit set that writes nothing apart
// ("ApplyCommitSet/read-only") from one that writes, and the transport
// counts pushed notices under "push", with no round trip. Each op's
// bytes are the system's: the trace/span pairs of its traced requests
// are left out, and shown once, below the total, as the harness's
// cost. The rows of a sweep add up to its Figure 8 bar.
func WriteWireOps(w io.Writer, sweeps []Sweep) {
	fmt.Fprintln(w, "Shared path by wire op (per interaction, over every delay point)")
	for _, s := range sweeps {
		ops := make(map[string]wire.OpStats)
		var ixns, traceBytes uint64
		for _, p := range s.Points {
			ixns += uint64(p.Load.Interactions)
			for label, o := range p.Wire.Ops {
				// A request's trace/span pair is sent, never received.
				agg := ops[label]
				agg.Count += o.Count
				agg.BytesSent += o.BytesSent - o.TraceBytes
				agg.BytesReceived += o.BytesReceived
				ops[label] = agg
				traceBytes += o.TraceBytes
			}
		}
		if ixns == 0 {
			continue
		}
		labels := make([]string, 0, len(ops))
		for label := range ops {
			labels = append(labels, label)
		}
		bytes := func(label string) uint64 { return ops[label].BytesSent + ops[label].BytesReceived }
		sort.Slice(labels, func(i, j int) bool {
			if bi, bj := bytes(labels[i]), bytes(labels[j]); bi != bj {
				return bi > bj
			}
			return labels[i] < labels[j]
		})
		per := func(n uint64) float64 { return float64(n) / float64(ixns) }
		fmt.Fprintf(w, "%-28s %10s %10s %10s %10s\n", s.Pair, "RTs/ixn", "sent", "received", "bytes/ixn")
		var total wire.OpStats
		for _, label := range labels {
			o := ops[label]
			total.Count += o.Count
			total.BytesSent += o.BytesSent
			total.BytesReceived += o.BytesReceived
			fmt.Fprintf(w, "  %-26s %10.3f %10.1f %10.1f %10.1f\n", label,
				per(o.Count), per(o.BytesSent), per(o.BytesReceived), per(bytes(label)))
		}
		fmt.Fprintf(w, "  %-26s %10.3f %10.1f %10.1f %10.1f\n", "total",
			per(total.Count), per(total.BytesSent), per(total.BytesReceived), per(total.BytesSent+total.BytesReceived))
		if traceBytes > 0 {
			fmt.Fprintf(w, "  %-26s %10s %10.1f %10s %10.1f\n", "harness trace headers",
				"", per(traceBytes), "", per(traceBytes))
		}
	}
}
