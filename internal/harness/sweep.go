package harness

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"edgeejb/internal/loadgen"
	"edgeejb/internal/stats"
)

// Point is one delay point of a sweep.
type Point struct {
	// OneWayDelayMs is the injected one-way delay, in milliseconds.
	OneWayDelayMs float64
	Pass
}

// Sweep is one (architecture, algorithm) latency curve.
type Sweep struct {
	Pair
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
func RunSweep(ctx context.Context, opts Options, scale Scale, delays []time.Duration) (Sweep, error) {
	if len(delays) == 0 {
		return Sweep{}, fmt.Errorf("harness: sweep needs at least one delay point")
	}
	opts.OneWayDelay = delays[0]
	topo, err := Build(opts)
	if err != nil {
		return Sweep{}, err
	}
	defer topo.Close()
	return RunSweepOn(ctx, topo, scale, delays)
}

// RunSweepOn measures an already-built topology: one client, warmed once
// at the first delay, then one pass per delay. Used directly by tests
// that need access to the topology's internals.
func RunSweepOn(ctx context.Context, topo *Topology, scale Scale, delays []time.Duration) (Sweep, error) {
	load := topo.oneClient(scale.Workload)
	load.Batches = scale.Batches
	topo.SetDelay(delays[0])
	if scale.Warmup > 0 {
		warm := load
		warm.Sessions = scale.Warmup
		if _, err := loadgen.Run(ctx, warm); err != nil {
			return Sweep{}, fmt.Errorf("harness: warmup: %w", err)
		}
	}

	load.Sessions = scale.Sessions
	sweep := Sweep{Pair: Pair{topo.Arch, topo.Algo}}
	for _, d := range delays {
		topo.SetDelay(d)
		pass, err := topo.Measure(ctx, load)
		if err != nil {
			return Sweep{}, fmt.Errorf("harness: delay %v: %w", d, err)
		}
		sweep.Points = append(sweep.Points, Point{
			OneWayDelayMs: float64(d) / float64(time.Millisecond),
			Pass:          pass,
		})
	}

	xs := make([]float64, len(sweep.Points))
	ys := make([]float64, len(sweep.Points))
	for i, p := range sweep.Points {
		xs[i] = p.OneWayDelayMs
		ys[i] = p.MeanLatencyMs()
	}
	fit, err := stats.LinearFit(xs, ys)
	switch {
	case err == nil:
		sweep.Fit = fit
	case errors.Is(err, stats.ErrDegenerate) || errors.Is(err, stats.ErrInsufficientData):
		// A single-delay sweep (or repeated delay points) has no
		// sensitivity to fit. The measured points are still valid —
		// mark the fit undefined instead of failing the whole sweep;
		// report writers render NaN as "n/a", and the summary carries no
		// sensitivity row.
		nan := math.NaN()
		sweep.Fit = stats.Fit{Slope: nan, Intercept: nan, R2: nan}
	default:
		return Sweep{}, fmt.Errorf("harness: fit: %w", err)
	}
	return sweep, nil
}
