package harness

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"edgeejb/internal/stats"
)

// Sweep is one (architecture, algorithm) curve: latency over delay
// points, or, with no fit, throughput over client counts.
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

// DelaySteps is a latency sweep's steps: one per delay, each continuing
// the warm-up's one virtual client.
func DelaySteps(delays []time.Duration) []Step {
	steps := make([]Step, len(delays))
	for i, d := range delays {
		ms := float64(d) / float64(time.Millisecond)
		steps[i] = Step{Label: fmt.Sprintf("delay %.1fms", ms), OneWayDelayMs: ms}
	}
	return steps
}

// RunSweep measures one latency curve of opts over delays (Run) and
// fits its sensitivity.
func RunSweep(ctx context.Context, opts Options, scale Scale, delays []time.Duration) (Sweep, error) {
	points, err := Run(ctx, opts, scale, DelaySteps(delays))
	if err != nil {
		return Sweep{}, err
	}
	sweep := Sweep{Pair: Pair{opts.Arch, opts.Algo}, Points: points}
	xs := make([]float64, len(points))
	ys := make([]float64, len(points))
	for i, p := range points {
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
