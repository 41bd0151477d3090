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
	// Faulted is the same workload under the fault schedule; its
	// Injected and Resubscribes are the report's fault columns.
	Faulted Pass
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

// RunFaultExperiment runs each pair on a topology of opts — after
// scale.Warmup sessions, a clean step, then the same client's workload
// with plan active — and reports session survival, retry consumption,
// and latency overhead. Abandoned sessions are part of what it reports,
// not a reason to stop. logf, if non-nil, receives progress lines.
func RunFaultExperiment(ctx context.Context, opts Options, scale Scale, pairs []Pair, plan latency.FaultPlan, logf func(format string, args ...any)) ([]FaultReport, error) {
	delayMs := float64(opts.OneWayDelay) / float64(time.Millisecond)
	steps := []Step{
		{Label: "clean", OneWayDelayMs: delayMs},
		{Label: "faulted", OneWayDelayMs: delayMs, Faults: &plan},
	}
	var reports []FaultReport
	for _, pair := range pairs {
		points, err := Run(ctx, pair.options(opts), scale, steps)
		if err != nil && !errors.Is(err, loadgen.ErrAbandoned) {
			return reports, fmt.Errorf("harness: faults %s: %w", pair, err)
		}
		rep := FaultReport{Pair: pair, Clean: points[0].Pass, Faulted: points[1].Pass}
		reports = append(reports, rep)
		if logf != nil {
			c, f := rep.Clean.Load, rep.Faulted.Load
			logf("  %s clean: %d/%d sessions, mean %.2f ms",
				pair, c.Completed, c.Completed+c.Abandoned, rep.Clean.MeanLatencyMs())
			logf("  %s faulted: %d/%d sessions (%.1f%%), %d wire retries, %d session retries, +%.1f%% latency",
				pair, f.Completed, f.Completed+f.Abandoned,
				100*f.SuccessRate(), rep.WireRetries(), f.Retries,
				rep.LatencyOverheadPct())
		}
	}
	return reports, nil
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
			f.Retries, r.LatencyOverheadPct(), r.Faulted.Resubscribes)
		fmt.Fprintf(w, "%-26s   (%d/%d sessions; faults: %d resets, %d truncations, %d stalls)\n",
			"", f.Completed, f.Completed+f.Abandoned,
			r.Faulted.Injected.ConnResets, r.Faulted.Injected.Truncations, r.Faulted.Injected.Stalls)
	}
}
