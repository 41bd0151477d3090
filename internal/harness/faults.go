package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"edgeejb/internal/appserver"
	"edgeejb/internal/deploy"
	"edgeejb/internal/latency"
	"edgeejb/internal/loadgen"
	"edgeejb/internal/trade"
)

// FaultOptions configures a fault-injection experiment: the Figure 6
// workload re-run with the delay proxy flipped into fault mode, so the
// question changes from "how slow is the edge?" to "does the edge
// survive the wide-area path misbehaving?".
type FaultOptions struct {
	// Pairs are the cells to harden-test; nil means the Figure 6 trio.
	Pairs []Pair
	// Populate sizes the Trade database.
	Populate trade.PopulateConfig
	// OneWayDelay is the baseline delay on the shared path.
	OneWayDelay time.Duration
	// Sessions per measured pass (default 80).
	Sessions int
	// WarmupSessions before the clean pass (default 20).
	WarmupSessions int
	// Plan is the fault schedule applied during the faulted pass. A
	// zero-value plan gets DefaultFaultPlan(1).
	Plan latency.FaultPlan
	// Protocol is Options.Protocol for every pair's topology.
	Protocol deploy.Protocol
}

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
	// Clean is the run with no faults injected.
	Clean loadgen.Result
	// Faulted is the same workload under the fault schedule.
	Faulted loadgen.Result
	// WireRetries is the transport-level retry count consumed on the
	// shared path during the faulted pass.
	WireRetries uint64
	// Faults are the proxy's injection counters for the faulted pass.
	Faults latency.FaultStats
	// Resubscribes counts the edge cache managers' invalidation-stream
	// reconnections over the faulted pass (cached algorithm only).
	Resubscribes uint64
}

// LatencyOverheadPct is the faulted pass's mean-latency overhead over
// the clean pass, in percent.
func (r FaultReport) LatencyOverheadPct() float64 {
	if r.Clean.Latency.Mean == 0 {
		return 0
	}
	return 100 * (r.Faulted.Latency.Mean - r.Clean.Latency.Mean) / r.Clean.Latency.Mean
}

// RunFaultExperiment measures each pair twice on one topology — a clean
// pass, then the same workload with the fault plan active — and reports
// session survival, retry consumption, and latency overhead. logf, if
// non-nil, receives progress lines.
func RunFaultExperiment(ctx context.Context, opts FaultOptions, logf func(format string, args ...any)) ([]FaultReport, error) {
	pairs := opts.Pairs
	if pairs == nil {
		pairs = []Pair{
			{ClientsRAS, AlgJDBC},
			{ESRBES, AlgCachedEJB},
			{ESRDB, AlgJDBC},
		}
	}
	if opts.Sessions < 1 {
		opts.Sessions = 80
	}
	if opts.WarmupSessions == 0 {
		opts.WarmupSessions = 20
	}
	if !opts.Plan.Active() {
		opts.Plan = DefaultFaultPlan(1)
	}

	var reports []FaultReport
	for _, pair := range pairs {
		rep, err := runFaultPair(ctx, pair, opts, logf)
		if err != nil {
			return reports, fmt.Errorf("harness: faults %s: %w", pair, err)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// buildFaultPair builds pair's topology as opts configure it.
func buildFaultPair(pair Pair, opts FaultOptions) (*Topology, error) {
	return Build(Options{
		Arch:        pair.Arch,
		Algo:        pair.Algo,
		OneWayDelay: opts.OneWayDelay,
		Populate:    opts.Populate,
		Protocol:    opts.Protocol,
	})
}

func runFaultPair(ctx context.Context, pair Pair, opts FaultOptions, logf func(string, ...any)) (FaultReport, error) {
	topo, err := buildFaultPair(pair, opts)
	if err != nil {
		return FaultReport{}, err
	}
	defer topo.Close()

	load := loadgen.Config{
		Clients: []*appserver.Client{topo.NewWebClient()},
		Generators: []*trade.Generator{trade.NewGenerator(trade.GeneratorConfig{
			Seed:    opts.Plan.Seed,
			Users:   opts.Populate.Users,
			Symbols: opts.Populate.Symbols,
		})},
	}
	// Abandoned sessions are part of what the experiment reports, not
	// a reason to stop it.
	pass := func(sessions int) (loadgen.Result, error) {
		load.Sessions = sessions
		res, err := loadgen.Run(ctx, load)
		if errors.Is(err, loadgen.ErrAbandoned) {
			err = nil
		}
		return res, err
	}

	// Warmup + clean pass.
	if opts.WarmupSessions > 0 {
		if _, err := pass(opts.WarmupSessions); err != nil {
			return FaultReport{}, fmt.Errorf("warmup: %w", err)
		}
	}
	clean, err := pass(opts.Sessions)
	if err != nil {
		return FaultReport{}, fmt.Errorf("clean pass: %w", err)
	}
	if logf != nil {
		logf("  %s clean: %d/%d sessions, mean %.2f ms",
			pair, clean.Completed, clean.Completed+clean.Abandoned, clean.Latency.Mean)
	}

	// Faulted pass: count retries consumed during this pass only.
	retriesBefore := topo.SharedPathStats().Retries
	resubscribesBefore := sumResubscribes(topo)
	topo.SetFaults(&opts.Plan)
	faulted, err := pass(opts.Sessions)
	faultStats := topo.FaultStats()
	topo.SetFaults(nil)
	if err != nil {
		return FaultReport{}, fmt.Errorf("faulted pass: %w", err)
	}

	rep := FaultReport{
		Pair:         pair,
		Clean:        clean,
		Faulted:      faulted,
		WireRetries:  topo.SharedPathStats().Retries - retriesBefore,
		Faults:       faultStats,
		Resubscribes: sumResubscribes(topo) - resubscribesBefore,
	}
	if logf != nil {
		logf("  %s faulted: %d/%d sessions (%.1f%%), %d wire retries, %d session retries, +%.1f%% latency",
			pair, faulted.Completed, faulted.Completed+faulted.Abandoned,
			100*faulted.SuccessRate(), rep.WireRetries, faulted.Retries,
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
		total := r.Faulted.Completed + r.Faulted.Abandoned
		fmt.Fprintf(w, "%-26s %8.1f%% %12d %12d %9.1f%% %12d\n",
			r.Pair.String(), 100*r.Faulted.SuccessRate(), r.WireRetries,
			r.Faulted.Retries, r.LatencyOverheadPct(), r.Resubscribes)
		fmt.Fprintf(w, "%-26s   (%d/%d sessions; faults: %d resets, %d truncations, %d stalls)\n",
			"", r.Faulted.Completed, total,
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
