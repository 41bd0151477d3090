package harness

import (
	"math"
	"strconv"
	"strings"
	"time"

	"edgeejb/internal/obs"
	"edgeejb/internal/regress"
	"edgeejb/internal/stats"
)

// SummaryInput collects everything a run measured for the canonical
// machine-readable summary.json. Every field is optional; the builder
// emits metrics only for what ran.
type SummaryInput struct {
	// Args echoes the command line.
	Args []string
	// Eval is the figure evaluation, when one ran.
	Eval *Evaluation
	// Throughput holds the concurrency-extension curves.
	Throughput []Sweep
	// Shards holds the shard-scaling sweep.
	Shards []ShardScalingPoint
	// Counters is the whole run's counter diff (finder-cache ratios).
	Counters map[string]uint64
	// Runtime is the run's runtime.* registry diff (from prof.Runtime)
	// up to the end of its last measured phase, feeding the resource.*
	// metrics. Nil when the runtime sampler was not running.
	Runtime *obs.Snapshot
}

// slug lowercases a paper-style name into a metric-path segment:
// "ES/RDB" -> "es-rdb", "Vanilla EJBs" -> "vanilla-ejbs".
func slug(s string) string {
	s = strings.ToLower(s)
	s = strings.ReplaceAll(s, "/", "-")
	s = strings.ReplaceAll(s, " ", "-")
	return s
}

// pairSlug names one evaluation cell: "es-rdb.jdbc".
func pairSlug(p Pair) string { return slug(p.Arch.String()) + "." + slug(p.Algo.String()) }

// fmtDelay renders a delay-point label without trailing zeros: "0",
// "1", "0.5".
func fmtDelay(ms float64) string { return strconv.FormatFloat(ms, 'f', -1, 64) }

// BuildSummary flattens a run's measurements into the summary.json
// metric namespace (documented in OBSERVABILITY.md):
//
//	latency.<pair>.d<D>ms.mean_ms          measured  per delay point
//	sensitivity.<pair>                     measured  Table 2 slope, fitted through timed points
//	wire.<pair>.rts_per_interaction        exact     shared-path round trips
//	wire.<pair>.bytes_per_interaction      exact     shared-path bytes
//	throughput.<pair>.c<N>.ixn_per_s       measured  per concurrency level
//	shards.s<N>.committed_per_s            measured  shard-scaling sweep
//	shards.s<N>.twopc_fraction             measured  cross-shard 2PC share
//	cache.finder_hit_ratio                 exact     whole-run finder cache
//	resource.allocs_per_interaction        measured  heap objects per committed ixn
//	resource.alloc_bytes_per_interaction   measured  heap bytes per committed ixn
//	resource.goroutine_high_water          measured  max goroutines sampled
//
// Exact metrics are counts of what the protocol did, which a fixed seed
// and one client repeat bit for bit; the gate fails on any difference in
// them. Everything read from a clock, a many-client schedule or the
// runtime is measured: printed, never judged.
func BuildSummary(in SummaryInput) *regress.Summary {
	s := &regress.Summary{
		Schema:    regress.SchemaV3,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Args:      in.Args,
		Metrics:   make(map[string]regress.Metric),
	}
	if in.Eval != nil {
		for pair, sweep := range in.Eval.Sweeps {
			ps := pairSlug(pair)
			var rts, bytesPer []float64
			for _, p := range sweep.Points {
				s.Metrics["latency."+ps+".d"+fmtDelay(p.OneWayDelayMs)+"ms.mean_ms"] = regress.Metric{
					Unit:   "ms",
					Kind:   regress.KindMeasured,
					Better: regress.LowerIsBetter,
					Mean:   p.MeanLatencyMs(),
					N:      p.Load.Interactions,
				}
				rts = append(rts, p.SharedRoundTripsPerInteraction())
				bytesPer = append(bytesPer, p.SharedBytesPerInteraction())
			}
			s.Metrics["wire."+ps+".rts_per_interaction"] = regress.Metric{
				Unit:   "rt/ixn",
				Kind:   regress.KindExact,
				Better: regress.LowerIsBetter,
				Mean:   stats.Mean(rts),
				N:      len(rts),
			}
			s.Metrics["wire."+ps+".bytes_per_interaction"] = regress.Metric{
				Unit:   "B/ixn",
				Kind:   regress.KindExact,
				Better: regress.LowerIsBetter,
				Mean:   stats.Mean(bytesPer),
				N:      len(bytesPer),
			}
			if sens := sweep.Sensitivity(); !math.IsNaN(sens) {
				s.Metrics["sensitivity."+ps] = regress.Metric{
					Unit:   "ms/ms",
					Kind:   regress.KindMeasured,
					Better: regress.LowerIsBetter,
					Mean:   sens,
					N:      len(sweep.Points),
				}
			}
		}
	}
	for _, curve := range in.Throughput {
		ps := pairSlug(curve.Pair)
		for _, p := range curve.Points {
			s.Metrics["throughput."+ps+".c"+strconv.Itoa(p.Clients)+".ixn_per_s"] = regress.Metric{
				Unit:   "ixn/s",
				Kind:   regress.KindMeasured,
				Better: regress.HigherIsBetter,
				Mean:   p.Load.Throughput,
				N:      p.Load.Interactions,
			}
		}
	}
	for _, p := range in.Shards {
		base := "shards.s" + strconv.Itoa(p.Shards)
		s.Metrics[base+".committed_per_s"] = regress.Metric{
			Unit:   "commit/s",
			Kind:   regress.KindMeasured,
			Better: regress.HigherIsBetter,
			Mean:   p.Load.Throughput,
			N:      p.Load.Interactions,
		}
		s.Metrics[base+".twopc_fraction"] = regress.Metric{
			Kind:   regress.KindMeasured,
			Better: regress.LowerIsBetter,
			Mean:   p.TwoPCFraction(),
			N:      int(p.committed()),
		}
	}
	if hits, misses := in.Counters["slicache.finder_hits"], in.Counters["slicache.finder_misses"]; hits+misses > 0 {
		s.Metrics["cache.finder_hit_ratio"] = regress.Metric{
			Kind:   regress.KindExact,
			Better: regress.HigherIsBetter,
			Mean:   float64(hits) / float64(hits+misses),
			N:      int(hits + misses),
		}
	}
	addResourceMetrics(s, in)
	return s
}

// addResourceMetrics normalizes the run's runtime.* diff by its
// interaction count into the resource.* family. Each metric is emitted
// only when its inputs are nonzero, so a run without the sampler just
// omits the family.
func addResourceMetrics(s *regress.Summary, in SummaryInput) {
	rt := in.Runtime
	if rt == nil {
		return
	}
	ixn := totalInteractions(in)
	if ixn > 0 {
		if allocs := rt.Counters["runtime.allocs_total"]; allocs > 0 {
			s.Metrics["resource.allocs_per_interaction"] = regress.Metric{
				Unit:   "obj/ixn",
				Kind:   regress.KindMeasured,
				Better: regress.LowerIsBetter,
				Mean:   float64(allocs) / float64(ixn),
				N:      ixn,
			}
		}
		if bytes := rt.Counters["runtime.alloc_bytes_total"]; bytes > 0 {
			s.Metrics["resource.alloc_bytes_per_interaction"] = regress.Metric{
				Unit:   "B/ixn",
				Kind:   regress.KindMeasured,
				Better: regress.LowerIsBetter,
				Mean:   float64(bytes) / float64(ixn),
				N:      ixn,
			}
		}
	}
	if hw := rt.Gauges["runtime.goroutines_highwater"]; hw > 0 {
		s.Metrics["resource.goroutine_high_water"] = regress.Metric{
			Unit:   "goroutines",
			Kind:   regress.KindMeasured,
			Better: regress.LowerIsBetter,
			Mean:   float64(hw),
		}
	}
}

// totalInteractions sums every committed interaction the run measured,
// across the figure sweeps, throughput curves, and shard sweep.
func totalInteractions(in SummaryInput) int {
	n := 0
	if in.Eval != nil {
		for _, sweep := range in.Eval.Sweeps {
			for _, p := range sweep.Points {
				n += p.Load.Interactions
			}
		}
	}
	for _, curve := range in.Throughput {
		for _, p := range curve.Points {
			n += p.Load.Interactions
		}
	}
	for _, p := range in.Shards {
		n += p.Load.Interactions
	}
	return n
}
