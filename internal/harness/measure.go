package harness

import (
	"context"
	"fmt"
	"strings"

	"edgeejb/internal/appserver"
	"edgeejb/internal/loadgen"
	"edgeejb/internal/obs"
	"edgeejb/internal/trade"
	"edgeejb/internal/wire"
)

// Scale sizes an experiment's load: what every measured pass drives and
// how long the topology is warmed first.
type Scale struct {
	// Workload sizes the session generators; Users and Symbols should
	// match the topology's Populate config.
	Workload trade.GeneratorConfig
	// Warmup is the sessions run before the first measured pass (paper:
	// 400).
	Warmup int
	// Sessions is the sessions measured per pass and client (paper: 300).
	Sessions int
	// Batches is the number of batched latency means (paper: 20).
	Batches int
}

// Pass is one measurement window of a topology: the load a client run
// produced and everything the topology counted while it ran.
type Pass struct {
	// Load is loadgen's measurement of the run.
	Load loadgen.Result
	// Wire is the traffic on the shared (high-latency) path during the
	// pass, as counted by the wire transport on its sending side.
	Wire wire.Stats
	// Metrics is the process-wide obs registry's diff over the pass:
	// counters (including labeled children like slicache.hits{bean=quote})
	// and histograms, spans among them as span.<name>. The harness runs
	// every tier in-process, so the spans cover the whole edge → backend
	// → store path.
	Metrics obs.Snapshot
	// Events are the forensic events (conflicts, invalidations, stale
	// finder reads, 2PC outcomes) emitted during the pass.
	Events []obs.Event
}

// Measure runs one pass of load over t. It waits for the invalidation
// notices of earlier commits before it snapshots the counts and for
// those of the pass's own commits before it diffs them, so a notice is
// charged to the pass whose commit sent it, never to the next or to
// none. loadgen's error comes back with the pass, which is complete
// all the same when the error wraps loadgen.ErrAbandoned.
func (t *Topology) Measure(ctx context.Context, load loadgen.Config) (Pass, error) {
	if err := t.awaitNotices(); err != nil {
		return Pass{}, err
	}
	wireBefore := t.SharedPathStats()
	obsBefore := obs.Default.Snapshot()
	seqBefore := obs.DefaultEvents.Seq()
	res, err := loadgen.Run(ctx, load)
	if werr := t.awaitNotices(); werr != nil {
		return Pass{}, werr
	}
	return Pass{
		Load:    res,
		Wire:    t.SharedPathStats().Sub(wireBefore),
		Metrics: obs.Default.Diff(obsBefore),
		Events:  obs.DefaultEvents.Since(seqBefore),
	}, err
}

// MeanLatencyMs is the pass's mean client-interaction latency (the
// y-axis of Figures 6 and 7).
func (p Pass) MeanLatencyMs() float64 { return p.Load.Latency.Mean }

// SharedBytesPerInteraction is the shared path's traffic per measured
// interaction (Figure 8): the system's bytes, without the trace/span
// pairs the harness's tracing adds to every request header.
func (p Pass) SharedBytesPerInteraction() float64 {
	return p.perInteraction(p.Wire.SystemBytes())
}

// SharedRoundTripsPerInteraction is the wire round trips on the shared
// path per client interaction: the communication cost the paper's
// algorithms compete on.
func (p Pass) SharedRoundTripsPerInteraction() float64 {
	return p.perInteraction(p.Wire.RoundTrips)
}

func (p Pass) perInteraction(n uint64) float64 {
	if p.Load.Interactions == 0 {
		return 0
	}
	return float64(n) / float64(p.Load.Interactions)
}

// Spans maps span names (client.interaction, edge.request,
// slicache.commit, backend.apply, ...) to the latency histograms they
// accumulated during the pass.
func (p Pass) Spans() map[string]obs.HistSnapshot {
	spans := make(map[string]obs.HistSnapshot)
	for name, h := range p.Metrics.Histograms {
		if rest, ok := strings.CutPrefix(name, "span."); ok {
			spans[rest] = h
		}
	}
	return spans
}

// oneClient is the load of one new web client of t driving a single
// generator of wl, the paper's one virtual client.
func (t *Topology) oneClient(wl trade.GeneratorConfig) loadgen.Config {
	return loadgen.Config{
		Clients:    []*appserver.Client{t.NewWebClient()},
		Generators: []*trade.Generator{trade.NewGenerator(wl)},
	}
}

// warm runs scale.Warmup sessions on one web client of its own.
func (t *Topology) warm(ctx context.Context, scale Scale) error {
	if scale.Warmup <= 0 {
		return nil
	}
	load := t.oneClient(scale.Workload)
	load.Sessions = scale.Warmup
	if _, err := loadgen.Run(ctx, load); err != nil {
		return fmt.Errorf("harness: warmup: %w", err)
	}
	return nil
}

// clients is the load of n fresh concurrent web clients, seeded per
// client, each driving scale.Sessions sessions.
func (t *Topology) clients(n int, scale Scale) loadgen.Config {
	clients := make([]*appserver.Client, n)
	for i := range clients {
		clients[i] = t.NewWebClient()
	}
	return loadgen.Config{
		Clients:    clients,
		Generators: loadgen.Generators(scale.Workload, n),
		Sessions:   scale.Sessions,
		Batches:    scale.Batches,
	}
}
