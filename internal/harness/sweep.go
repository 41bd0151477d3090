package harness

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"edgeejb/internal/appserver"
	"edgeejb/internal/loadgen"
	"edgeejb/internal/obs"
	"edgeejb/internal/stats"
	"edgeejb/internal/trade"
)

// RunOptions configures a delay sweep over one topology.
type RunOptions struct {
	// Delays are the one-way delays to sweep (the x-axis of Figures
	// 6–7). Zero is a legitimate point (LAN baseline).
	Delays []time.Duration
	// Sessions measured per delay point (paper: 300).
	Sessions int
	// WarmupSessions run once, before the first point (paper: 400).
	WarmupSessions int
	// Batches for batched latency means (paper: 20).
	Batches int
	// Workload sizes the session generator; Users/Symbols should match
	// the topology's Populate config.
	Workload trade.GeneratorConfig
}

// Point is one delay point of a sweep.
type Point struct {
	// OneWayDelayMs is the injected one-way delay, in milliseconds.
	OneWayDelayMs float64
	// MeanLatencyMs is the mean client-interaction latency (Figure 6/7
	// y-axis).
	MeanLatencyMs float64
	// SharedBytesPerInteraction is the traffic on the shared
	// (high-latency) path divided by measured interactions (Figure 8),
	// as counted by the wire transport on the sending side of that path.
	SharedBytesPerInteraction float64
	// SharedRoundTripsPerInteraction is the number of wire round trips
	// on the shared path per client interaction — the "communication
	// cost" the paper's algorithms compete on.
	SharedRoundTripsPerInteraction float64
	// Load is the full measurement for this point.
	Load loadgen.Result
	// Spans maps span names (client.interaction, edge.request,
	// slicache.commit, backend.apply, ...) to the latency histograms
	// they accumulated during this point, diffed from the process-wide
	// obs registry. The harness runs every tier in-process, so the map
	// covers the whole edge → backend → store path and decomposes
	// MeanLatencyMs into per-hop time.
	Spans map[string]obs.HistSnapshot
	// Counters is the full counter diff for the point, including labeled
	// children like slicache.hits{bean=quote} — the raw material of the
	// per-bean hit-ratio tables in the forensics report.
	Counters map[string]uint64
	// Events are the forensic events (conflicts, invalidations, stale
	// finder reads, 2PC outcomes) emitted during this point.
	Events []obs.Event
}

// Sweep is one (architecture, algorithm) latency curve.
type Sweep struct {
	Arch   Architecture
	Algo   Algorithm
	Points []Point
	// Fit is the least-squares line through (delay, latency): Fit.Slope
	// is the paper's latency sensitivity (Table 2).
	Fit stats.Fit
}

// Sensitivity returns the latency-sensitivity slope (dimensionless:
// ms of client latency per ms of one-way delay).
func (s Sweep) Sensitivity() float64 { return s.Fit.Slope }

// RunSweep builds the topology, warms it up, then measures every delay
// point. The topology is built once and the delay adjusted in place, so
// caches stay warm across points exactly as a long-running edge server's
// would.
func RunSweep(ctx context.Context, opts Options, run RunOptions) (Sweep, error) {
	if len(run.Delays) == 0 {
		return Sweep{}, fmt.Errorf("harness: sweep needs at least one delay point")
	}
	opts.OneWayDelay = run.Delays[0]
	topo, err := Build(opts)
	if err != nil {
		return Sweep{}, err
	}
	defer topo.Close()
	return RunSweepOn(ctx, topo, run)
}

// RunSweepOn measures an already-built topology. Used directly by tests
// and ablations that need access to the topology's internals.
func RunSweepOn(ctx context.Context, topo *Topology, run RunOptions) (Sweep, error) {
	client := topo.NewWebClient()
	defer client.Close()
	load := loadgen.Config{
		Clients:    []*appserver.Client{client},
		Generators: []*trade.Generator{trade.NewGenerator(run.Workload)},
		Batches:    run.Batches,
	}

	// One warmup at the first delay point.
	topo.SetDelay(run.Delays[0])
	if run.WarmupSessions > 0 {
		warm := load
		warm.Sessions = run.WarmupSessions
		if _, err := loadgen.Run(ctx, warm); err != nil {
			return Sweep{}, fmt.Errorf("harness: warmup: %w", err)
		}
	}

	// Every count snapshot waits for the notices of the commits before
	// it, so a notice still in flight when a point ends is charged to
	// that point, never to the next one or to none.
	load.Sessions = run.Sessions
	sweep := Sweep{Arch: topo.Arch, Algo: topo.Algo}
	for _, d := range run.Delays {
		topo.SetDelay(d)
		if err := topo.awaitNotices(); err != nil {
			return Sweep{}, err
		}
		before := topo.SharedPathStats()
		obsBefore := obs.Default.Snapshot()
		seqBefore := obs.DefaultEvents.Seq()
		res, err := loadgen.Run(ctx, load)
		if err != nil {
			return Sweep{}, fmt.Errorf("harness: delay %v: %w", d, err)
		}
		if err := topo.awaitNotices(); err != nil {
			return Sweep{}, err
		}
		after := topo.SharedPathStats()
		diff := obs.Default.Diff(obsBefore)
		point := Point{
			OneWayDelayMs: float64(d) / float64(time.Millisecond),
			MeanLatencyMs: res.Latency.Mean,
			Load:          res,
			Spans:         spanDiff(diff),
			Counters:      diff.Counters,
			Events:        obs.DefaultEvents.Since(seqBefore),
		}
		if res.Interactions > 0 {
			point.SharedBytesPerInteraction =
				float64(after.Bytes()-before.Bytes()) / float64(res.Interactions)
			point.SharedRoundTripsPerInteraction =
				float64(after.RoundTrips-before.RoundTrips) / float64(res.Interactions)
		}
		sweep.Points = append(sweep.Points, point)
	}

	xs := make([]float64, len(sweep.Points))
	ys := make([]float64, len(sweep.Points))
	for i, p := range sweep.Points {
		xs[i] = p.OneWayDelayMs
		ys[i] = p.MeanLatencyMs
	}
	if len(xs) >= 2 {
		fit, err := stats.LinearFit(xs, ys)
		switch {
		case err == nil:
			sweep.Fit = fit
		case errors.Is(err, stats.ErrDegenerate) || errors.Is(err, stats.ErrInsufficientData):
			// A single-delay sweep (or repeated delay points) has no
			// sensitivity to fit. The measured points are still valid —
			// mark the fit undefined instead of failing the whole sweep;
			// report writers render NaN as "n/a".
			nan := math.NaN()
			sweep.Fit = stats.Fit{Slope: nan, Intercept: nan, R2: nan}
		default:
			return Sweep{}, fmt.Errorf("harness: fit: %w", err)
		}
	}
	return sweep, nil
}

// spanDiff extracts the span latency histograms from a registry diff,
// keyed by bare span name.
func spanDiff(diff obs.Snapshot) map[string]obs.HistSnapshot {
	spans := make(map[string]obs.HistSnapshot)
	for name, h := range diff.Histograms {
		if rest, ok := strings.CutPrefix(name, "span."); ok {
			spans[rest] = h
		}
	}
	return spans
}
