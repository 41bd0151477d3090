package harness

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"edgeejb/internal/appserver"
	"edgeejb/internal/latency"
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
	// Injected counts the faults the proxies injected under the fault
	// plan in force, which SetFaults starts from zero.
	Injected latency.FaultStats
	// Resubscribes counts the edge cache managers' invalidation-stream
	// reconnections during the pass (cached algorithm only).
	Resubscribes uint64
	// BackendCommits holds, by shard, the commit sets (and 2PC sub-sets)
	// each back-end server applied during the pass (ES/RBES only).
	BackendCommits []uint64
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
	// counted is what the topology counts beyond the registry: stream
	// resubscribes, and the commits each back-end applied.
	counted := func() (resubscribes uint64, commits []uint64) {
		for _, m := range t.Managers {
			if m != nil {
				resubscribes += m.Stats().Resubscribes
			}
		}
		for _, be := range t.Backends {
			commits = append(commits, be.CommitsApplied())
		}
		return resubscribes, commits
	}
	wireBefore := t.SharedPathStats()
	obsBefore := obs.Default.Snapshot()
	seqBefore := obs.DefaultEvents.Seq()
	resubscribesBefore, commitsBefore := counted()
	res, err := loadgen.Run(ctx, load)
	if werr := t.awaitNotices(); werr != nil {
		return Pass{}, werr
	}
	pass := Pass{
		Load:     res,
		Wire:     t.SharedPathStats().Sub(wireBefore),
		Metrics:  obs.Default.Diff(obsBefore),
		Events:   obs.DefaultEvents.Since(seqBefore),
		Injected: t.FaultStats(),
	}
	pass.Resubscribes, pass.BackendCommits = counted()
	pass.Resubscribes -= resubscribesBefore
	for i, n := range commitsBefore {
		pass.BackendCommits[i] -= n
	}
	return pass, err
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

// Step is one measured window of a run.
type Step struct {
	// Label names the step in forensics reports: "delay 2.0ms",
	// "4 clients".
	Label string
	// OneWayDelayMs is the delay on the high-latency path during the
	// step, in milliseconds.
	OneWayDelayMs float64
	// Clients is the number of fresh concurrent web clients the step
	// drives, client c's generator seeded by loadgen.Generators. Zero
	// continues the warm-up's one virtual client and its generator.
	Clients int
	// Faults, when set, is injected on the high-latency path for the
	// step's duration.
	Faults *latency.FaultPlan
}

// delay is the step's one-way delay as a duration.
func (s Step) delay() time.Duration {
	return time.Duration(math.Round(s.OneWayDelayMs * float64(time.Millisecond)))
}

// Point is one measured step.
type Point struct {
	Step
	Pass
}

// Run builds a topology of opts at the first step's delay, runs steps
// on it (Topology.Run) and closes it.
func Run(ctx context.Context, opts Options, scale Scale, steps []Step) ([]Point, error) {
	if len(steps) > 0 {
		opts.OneWayDelay = steps[0].delay()
	}
	topo, err := Build(opts)
	if err != nil {
		return nil, err
	}
	defer topo.Close()
	return topo.Run(ctx, scale, steps)
}

// Run is every experiment's procedure (§4): one virtual client warms t
// once with scale.Warmup sessions at the first step's delay, then each
// step is measured in turn, every client it drives running
// scale.Sessions sessions. The topology stays up across steps, so caches
// stay warm exactly as a long-running edge server's would. An abandoned
// session does not stop the run: the points come back complete, with an
// error wrapping loadgen.ErrAbandoned.
func (t *Topology) Run(ctx context.Context, scale Scale, steps []Step) ([]Point, error) {
	if len(steps) == 0 {
		return nil, errors.New("harness: a run needs at least one step")
	}
	var abandoned error
	failed := func(err error) bool {
		if errors.Is(err, loadgen.ErrAbandoned) {
			if abandoned == nil {
				abandoned = err
			}
			return false
		}
		return err != nil
	}
	one := loadgen.Config{
		Clients:    []*appserver.Client{t.NewWebClient()},
		Generators: []*trade.Generator{trade.NewGenerator(scale.Workload)},
		Batches:    scale.Batches,
	}
	t.SetDelay(steps[0].delay())
	if scale.Warmup > 0 {
		warm := one
		warm.Sessions = scale.Warmup
		if _, err := loadgen.Run(ctx, warm); failed(err) {
			return nil, fmt.Errorf("harness: warmup: %w", err)
		}
	}
	points := make([]Point, 0, len(steps))
	for _, s := range steps {
		load := one
		if s.Clients > 0 {
			load.Clients = make([]*appserver.Client, s.Clients)
			for i := range load.Clients {
				load.Clients[i] = t.NewWebClient()
			}
			load.Generators = loadgen.Generators(scale.Workload, s.Clients)
		}
		load.Sessions = scale.Sessions
		t.SetDelay(s.delay())
		t.SetFaults(s.Faults)
		pass, err := t.Measure(ctx, load)
		t.SetFaults(nil)
		if failed(err) {
			return points, fmt.Errorf("harness: %s: %w", s.Label, err)
		}
		points = append(points, Point{Step: s, Pass: pass})
	}
	return points, abandoned
}
