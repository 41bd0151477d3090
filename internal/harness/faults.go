package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"edgeejb/internal/latency"
	"edgeejb/internal/loadgen"
)

// The fault-injection experiment: the Figure 6 workload re-run with the
// delay proxy flipped into fault mode, so the question changes from "how
// slow is the edge?" to "does the edge survive the wide-area path
// misbehaving?".

// DefaultFaultPlan returns a moderate schedule: occasional connection
// dooms, rare stalls, rare truncations. Severe enough that a run
// without retries visibly fails, mild enough that bounded backoff
// recovers nearly every session.
func DefaultFaultPlan(seed int64) latency.FaultPlan {
	return latency.FaultPlan{
		Seed:          seed,
		ResetRate:     0.08,
		ResetAfterMax: 64 * 1024,
		StallRate:     0.01,
		StallFor:      25 * time.Millisecond,
		TruncateRate:  0.005,
	}
}

// FaultReport is the outcome for one (architecture, algorithm) cell.
type FaultReport struct {
	Pair Pair
	// Clean is the pass with no faults injected.
	Clean Pass
	// Faulted is the same workload under the fault schedule.
	Faulted Pass
	// Faults are the proxy's injection counters for the faulted pass.
	Faults latency.FaultStats
	// Resubscribes counts the edge cache managers' invalidation-stream
	// reconnections over the faulted pass (cached algorithm only).
	Resubscribes uint64
}

// WireRetries is the transport-level retry count consumed on the shared
// path during the faulted pass.
func (r FaultReport) WireRetries() uint64 { return r.Faulted.Wire.Retries }

// LatencyOverheadPct is the faulted pass's mean-latency overhead over
// the clean pass, in percent.
func (r FaultReport) LatencyOverheadPct() float64 {
	clean := r.Clean.MeanLatencyMs()
	if clean == 0 {
		return 0
	}
	return 100 * (r.Faulted.MeanLatencyMs() - clean) / clean
}

// RunFaultExperiment measures each pair twice on one topology of opts —
// after scale.Warmup sessions, a clean pass, then the same workload with
// plan active — and reports session survival, retry consumption, and
// latency overhead. Abandoned sessions are part of what it reports, not
// a reason to stop. logf, if non-nil, receives progress lines.
func RunFaultExperiment(ctx context.Context, opts Options, scale Scale, pairs []Pair, plan latency.FaultPlan, logf func(format string, args ...any)) ([]FaultReport, error) {
	var reports []FaultReport
	for _, pair := range pairs {
		rep, err := runFaultPair(ctx, pair.options(opts), scale, plan, logf)
		if err != nil {
			return reports, fmt.Errorf("harness: faults %s: %w", pair, err)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

func runFaultPair(ctx context.Context, opts Options, scale Scale, plan latency.FaultPlan, logf func(string, ...any)) (FaultReport, error) {
	topo, err := Build(opts)
	if err != nil {
		return FaultReport{}, err
	}
	defer topo.Close()
	rep := FaultReport{Pair: Pair{topo.Arch, topo.Algo}}

	load := topo.oneClient(scale.Workload)
	load.Batches = scale.Batches
	measure := func() (Pass, error) {
		p, err := topo.Measure(ctx, load)
		if errors.Is(err, loadgen.ErrAbandoned) {
			err = nil
		}
		return p, err
	}
	if scale.Warmup > 0 {
		warm := load
		warm.Sessions = scale.Warmup
		if _, err := loadgen.Run(ctx, warm); err != nil && !errors.Is(err, loadgen.ErrAbandoned) {
			return FaultReport{}, fmt.Errorf("warmup: %w", err)
		}
	}
	load.Sessions = scale.Sessions
	if rep.Clean, err = measure(); err != nil {
		return FaultReport{}, fmt.Errorf("clean pass: %w", err)
	}
	if logf != nil {
		logf("  %s clean: %d/%d sessions, mean %.2f ms",
			rep.Pair, rep.Clean.Load.Completed, rep.Clean.Load.Completed+rep.Clean.Load.Abandoned, rep.Clean.MeanLatencyMs())
	}

	resubscribes := sumResubscribes(topo)
	topo.SetFaults(&plan)
	rep.Faulted, err = measure()
	rep.Faults = topo.FaultStats()
	topo.SetFaults(nil)
	if err != nil {
		return FaultReport{}, fmt.Errorf("faulted pass: %w", err)
	}
	rep.Resubscribes = sumResubscribes(topo) - resubscribes
	if logf != nil {
		f := rep.Faulted.Load
		logf("  %s faulted: %d/%d sessions (%.1f%%), %d wire retries, %d session retries, +%.1f%% latency",
			rep.Pair, f.Completed, f.Completed+f.Abandoned,
			100*f.SuccessRate(), rep.WireRetries(), f.Retries,
			rep.LatencyOverheadPct())
	}
	return rep, nil
}

// WriteFaultReport renders the fault experiment as a table.
func WriteFaultReport(w io.Writer, reports []FaultReport) {
	fmt.Fprintln(w, "Fault injection: Figure 6 workload under a faulted shared path")
	fmt.Fprintf(w, "%-26s %9s %12s %12s %10s %12s\n",
		"configuration", "success", "wire-retry", "sess-retry", "overhead", "resubscribe")
	for _, r := range reports {
		f := r.Faulted.Load
		fmt.Fprintf(w, "%-26s %8.1f%% %12d %12d %9.1f%% %12d\n",
			r.Pair.String(), 100*f.SuccessRate(), r.WireRetries(),
			f.Retries, r.LatencyOverheadPct(), r.Resubscribes)
		fmt.Fprintf(w, "%-26s   (%d/%d sessions; faults: %d resets, %d truncations, %d stalls)\n",
			"", f.Completed, f.Completed+f.Abandoned,
			r.Faults.ConnResets, r.Faults.Truncations, r.Faults.Stalls)
	}
}

// sumResubscribes totals the cache managers' stream reconnections
// (zero for non-cached algorithms).
func sumResubscribes(t *Topology) uint64 {
	var n uint64
	for _, m := range t.Managers {
		if m != nil {
			n += m.Stats().Resubscribes
		}
	}
	return n
}
