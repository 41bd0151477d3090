package loadgen

import (
	"context"
	"fmt"
	"time"

	"edgeejb/internal/appserver"
	"edgeejb/internal/obs"
	"edgeejb/internal/stats"
	"edgeejb/internal/trade"
)

// Config describes one measurement run.
type Config struct {
	// Client is the virtual web client.
	Client *appserver.Client
	// Generator produces the session steps.
	Generator *trade.Generator
	// WarmupSessions run before measurement begins (paper: 400).
	WarmupSessions int
	// Sessions are measured (paper: 300).
	Sessions int
	// Batches for batched means (paper: 20).
	Batches int
}

// Result is one run's measurements.
type Result struct {
	// Interactions is the number of measured client interactions.
	Interactions int
	// Latency summarizes per-interaction round-trip latency in
	// milliseconds.
	Latency stats.Summary
	// BatchMeans are the per-batch mean latencies (ms).
	BatchMeans []float64
	// CI95 is the 95% confidence half-width on the mean latency,
	// computed from the batch means (the paper's batching exists for
	// exactly this).
	CI95 float64
	// PerAction summarizes latency by trade action.
	PerAction map[string]stats.Summary
	// Failures counts interactions whose response reported an error.
	Failures int
	// Elapsed is the measured phase's wall-clock duration.
	Elapsed time.Duration
}

// MeanLatencyMs is the headline number: mean latency of a client
// interaction, in milliseconds.
func (r Result) MeanLatencyMs() float64 { return r.Latency.Mean }

// Run performs warmup then measurement. Application-level failures
// (e.g. a conflicting commit that exhausted retries) are counted, not
// fatal; transport failures abort the run.
func Run(ctx context.Context, cfg Config) (Result, error) {
	if cfg.Client == nil || cfg.Generator == nil {
		return Result{}, fmt.Errorf("loadgen: client and generator are required")
	}
	if cfg.Sessions < 1 {
		cfg.Sessions = 1
	}
	if cfg.Batches < 1 {
		cfg.Batches = 20
	}

	for i := 0; i < cfg.WarmupSessions; i++ {
		if _, _, err := runSession(ctx, cfg.Client, cfg.Generator, nil); err != nil {
			return Result{}, fmt.Errorf("loadgen: warmup session %d: %w", i, err)
		}
	}

	var (
		latencies []float64
		perAction = make(map[string][]float64)
		failures  int
	)
	start := time.Now()
	for i := 0; i < cfg.Sessions; i++ {
		lats, fails, err := runSession(ctx, cfg.Client, cfg.Generator, perAction)
		if err != nil {
			return Result{}, fmt.Errorf("loadgen: session %d: %w", i, err)
		}
		latencies = append(latencies, lats...)
		failures += fails
	}
	elapsed := time.Since(start)

	batchMeans := stats.BatchMeans(latencies, cfg.Batches)
	res := Result{
		Interactions: len(latencies),
		Latency:      stats.Summarize(latencies),
		BatchMeans:   batchMeans,
		CI95:         stats.ConfidenceInterval95(batchMeans),
		PerAction:    make(map[string]stats.Summary, len(perAction)),
		Failures:     failures,
		Elapsed:      elapsed,
	}
	for action, lats := range perAction {
		res.PerAction[action] = stats.Summarize(lats)
	}
	return res, nil
}

// runSession executes one session and returns per-interaction latencies
// in milliseconds. perAction, when non-nil, collects latencies by
// action name.
func runSession(ctx context.Context, client *appserver.Client, gen *trade.Generator, perAction map[string][]float64) ([]float64, int, error) {
	steps := gen.Session()
	latencies := make([]float64, 0, len(steps))
	failures := 0
	for _, step := range steps {
		// Each interaction gets its own trace so its spans — the edge
		// dispatch and any cache-miss or commit round trips it caused —
		// reconstruct as one tree in the span log.
		tctx, _ := obs.WithNewTrace(ctx)
		sctx, span := obs.StartSpan(tctx, "client.interaction")
		begin := time.Now()
		resp, err := client.DoStep(sctx, step)
		span.End()
		if err != nil {
			return nil, 0, fmt.Errorf("step %s: %w", step.Action, err)
		}
		ms := float64(time.Since(begin)) / float64(time.Millisecond)
		latencies = append(latencies, ms)
		if perAction != nil {
			perAction[step.Action.String()] = append(perAction[step.Action.String()], ms)
		}
		if !resp.OK {
			failures++
		}
	}
	return latencies, failures, nil
}
