package loadgen

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"edgeejb/internal/appserver"
	"edgeejb/internal/obs"
	"edgeejb/internal/stats"
	"edgeejb/internal/trade"
)

// The failure rule every run follows. A step that errors, outlives
// stepTimeout or answers !OK ends its session; the session is retried
// from a fresh Generator.Session (new work, not a replay) up to
// sessionRetries more times before it is abandoned.
const (
	stepTimeout    = 10 * time.Second
	sessionRetries = 5
)

// ErrAbandoned is wrapped by Run's error when a session failed every
// attempt. The Result is complete all the same.
var ErrAbandoned = errors.New("loadgen: session abandoned")

// Config describes one measurement run.
type Config struct {
	// Clients are the virtual web clients, each driven by its own
	// goroutine; one client is the paper's low-load setup.
	Clients []*appserver.Client
	// Generators produce the session steps, Generators[i] for
	// Clients[i]. A generator keeps streaming across runs, so a warmup
	// followed by measured runs over the same generators sees one
	// continuous workload.
	Generators []*trade.Generator
	// Sessions completed per client (paper: 300).
	Sessions int
	// Batches for batched means (paper: 20).
	Batches int
}

// Result is one run's measurements. Only steps that succeeded enter
// latency, batch means, per-action stats and throughput.
type Result struct {
	// Interactions is the number of successful client interactions.
	Interactions int
	// Throughput is successful interactions per wall-clock second.
	Throughput float64
	// Latency summarizes per-interaction latency in milliseconds.
	Latency stats.Summary
	// BatchMeans are the per-batch mean latencies (ms).
	BatchMeans []float64
	// CI95 is the 95% confidence half-width on the mean latency,
	// computed from the batch means (the paper's batching exists for
	// exactly this).
	CI95 float64
	// PerAction summarizes latency by trade action.
	PerAction map[string]stats.Summary
	// Failures counts steps that failed (transport error, timeout or
	// an !OK response); each ended its session.
	Failures int
	// Completed and Abandoned count sessions that finished every step
	// and sessions that failed every attempt; Retries counts the extra
	// attempts spent.
	Completed, Abandoned, Retries int
	// Elapsed is the run's wall-clock duration.
	Elapsed time.Duration
}

// SuccessRate returns the fraction of sessions that completed.
func (r Result) SuccessRate() float64 {
	if r.Completed+r.Abandoned == 0 {
		return 0
	}
	return float64(r.Completed) / float64(r.Completed+r.Abandoned)
}

// Generators returns one generator per concurrent client, client c
// seeded Seed*1000+c+1 so clients walk different users (with overlap,
// which is what produces conflicts).
func Generators(wl trade.GeneratorConfig, n int) []*trade.Generator {
	gens := make([]*trade.Generator, n)
	for c := range gens {
		cfg := wl
		cfg.Seed = wl.Seed*1000 + int64(c) + 1
		gens[c] = trade.NewGenerator(cfg)
	}
	return gens
}

// clientRun is one client's share of a run.
type clientRun struct {
	latencies []float64
	perAction map[string][]float64
	failures  int
	completed int
	abandoned int
	retries   int
	lastErr   error
}

// Run drives every client through Sessions sessions concurrently and
// aggregates their measurements. It fails early only on a bad config
// or a cancelled context; abandoned sessions are counted and reported
// through an error wrapping ErrAbandoned.
func Run(ctx context.Context, cfg Config) (Result, error) {
	if len(cfg.Clients) == 0 || len(cfg.Clients) != len(cfg.Generators) {
		return Result{}, fmt.Errorf("loadgen: one generator per client is required (%d clients, %d generators)",
			len(cfg.Clients), len(cfg.Generators))
	}
	if cfg.Sessions < 1 {
		cfg.Sessions = 1
	}
	if cfg.Batches < 1 {
		cfg.Batches = 20
	}

	runs := make([]clientRun, len(cfg.Clients))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[c].drive(ctx, cfg.Clients[c], cfg.Generators[c], cfg.Sessions)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	var (
		res       = Result{Elapsed: elapsed, PerAction: make(map[string]stats.Summary)}
		latencies []float64
		perAction = make(map[string][]float64)
		lastErr   error
	)
	for _, r := range runs {
		latencies = append(latencies, r.latencies...)
		for action, lats := range r.perAction {
			perAction[action] = append(perAction[action], lats...)
		}
		res.Failures += r.failures
		res.Completed += r.completed
		res.Abandoned += r.abandoned
		res.Retries += r.retries
		if r.lastErr != nil {
			lastErr = r.lastErr
		}
	}
	res.Interactions = len(latencies)
	res.Throughput = float64(len(latencies)) / elapsed.Seconds()
	res.Latency = stats.Summarize(latencies)
	res.BatchMeans = stats.BatchMeans(latencies, cfg.Batches)
	res.CI95 = stats.ConfidenceInterval95(res.BatchMeans)
	for action, lats := range perAction {
		res.PerAction[action] = stats.Summarize(lats)
	}
	if res.Abandoned > 0 {
		return res, fmt.Errorf("%w: %d of %d, last failure: %v",
			ErrAbandoned, res.Abandoned, res.Completed+res.Abandoned, lastErr)
	}
	return res, nil
}

// drive runs one client's sessions under the failure rule.
func (r *clientRun) drive(ctx context.Context, client *appserver.Client, gen *trade.Generator, sessions int) {
	r.perAction = make(map[string][]float64)
	for s := 0; s < sessions && ctx.Err() == nil; s++ {
		var err error
		for attempt := 0; attempt <= sessionRetries; attempt++ {
			if attempt > 0 {
				r.retries++
			}
			if err = r.session(ctx, client, gen); err == nil || ctx.Err() != nil {
				break
			}
		}
		if err == nil {
			r.completed++
		} else {
			r.abandoned++
			r.lastErr = err
		}
	}
}

// session executes one session attempt, recording the steps that
// succeeded, and returns the failure that ended it.
func (r *clientRun) session(ctx context.Context, client *appserver.Client, gen *trade.Generator) error {
	for _, step := range gen.Session() {
		// Each interaction gets its own trace so its spans — the edge
		// dispatch and any cache-miss or commit round trips it caused —
		// reconstruct as one tree in the span log.
		tctx, _ := obs.WithNewTrace(ctx)
		sctx, span := obs.StartSpan(tctx, "client.interaction")
		sctx, cancel := context.WithTimeout(sctx, stepTimeout)
		begin := time.Now()
		resp, err := client.DoStep(sctx, step)
		ms := float64(time.Since(begin)) / float64(time.Millisecond)
		cancel()
		span.End()
		if err == nil && !resp.OK {
			err = fmt.Errorf("application error: %s", resp.Err)
		}
		if err != nil {
			r.failures++
			return fmt.Errorf("step %s: %w", step.Action, err)
		}
		r.latencies = append(r.latencies, ms)
		r.perAction[step.Action.String()] = append(r.perAction[step.Action.String()], ms)
	}
	return nil
}
