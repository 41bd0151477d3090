package harness

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"edgeejb/internal/deploy"
	"edgeejb/internal/obs"
	"edgeejb/internal/trade"
)

// ShardScalingOptions configures the shard-scaling extension: the same
// concurrent Trade workload run against datacenter tiers of increasing
// shard count, reporting throughput, the 2PC fraction the placement
// leaves cross-shard, and the per-shard commit balance.
//
// The whole benchmark runs on one host, so real CPU parallelism cannot
// carry the scaling story. DBCommitService models the datacenter
// instead: each shard's store serializes an artificial per-commit-set
// validation service time, so one shard saturates at roughly
// 1/DBCommitService commit sets per second and N shards at N times
// that — minus what cross-shard coordination costs. What the curve
// measures is therefore the routing and 2PC overhead, which is real,
// not the host's core count.
type ShardScalingOptions struct {
	// ShardCounts is the sweep (e.g. 1, 2, 4); 1 is the baseline.
	ShardCounts []int
	// Clients is the number of concurrent virtual clients.
	Clients int
	// SessionsPerClient measured per client per point.
	SessionsPerClient int
	// WarmupSessions before each point's measurement.
	WarmupSessions int
	// DBCommitService is the modeled per-commit-set validation service
	// time on every shard (see above). Zero disables the model, leaving
	// the curve dominated by the single host's real capacity.
	DBCommitService time.Duration
	// OneWayDelay on the edge↔backend path.
	OneWayDelay time.Duration
	// Populate sizes the Trade database.
	Populate trade.PopulateConfig
	// Workload sizes the generators.
	Workload trade.GeneratorConfig
	// Protocol is Options.Protocol for every point's topology.
	Protocol deploy.Protocol
}

// DefaultShardScalingOptions returns a laptop-scale sweep sized so the
// modeled commit service, not the workload generator, is the
// bottleneck: enough clients to saturate one shard's ~500 commit
// sets/second and leave headroom for four shards.
func DefaultShardScalingOptions() ShardScalingOptions {
	return ShardScalingOptions{
		ShardCounts:       []int{1, 2, 4},
		Clients:           24,
		SessionsPerClient: 4,
		WarmupSessions:    4,
		DBCommitService:   2 * time.Millisecond,
		Populate:          trade.PopulateConfig{Seed: 42, Users: 50, Symbols: 100, HoldingsPerUser: 4},
		Workload:          trade.GeneratorConfig{Seed: 42, Users: 50, Symbols: 100},
	}
}

// ShardScalingPoint is one shard count's measurement.
type ShardScalingPoint struct {
	Shards int
	// Throughput is successful interactions per second: the quantity
	// the acceptance curve compares across shard counts.
	Throughput    float64
	MeanLatencyMs float64
	Failures      int
	Interactions  int
	// Commit-path split of the commit sets the edges committed.
	FastpathCommits uint64
	TwoPCCommits    uint64
	TwoPCAborts     uint64
	ReadonlyCommits uint64
	ScatterQueries  uint64
	// PerShardCommits maps shard index to the commit sets (and 2PC
	// sub-sets) its back-end server applied.
	PerShardCommits map[int]uint64
}

// TwoPCFraction is the share of committed sets that needed cross-shard
// two-phase commit.
func (p ShardScalingPoint) TwoPCFraction() float64 {
	total := p.FastpathCommits + p.TwoPCCommits + p.ReadonlyCommits
	if total == 0 {
		return 0
	}
	return float64(p.TwoPCCommits) / float64(total)
}

// RunShardScaling sweeps shard counts, building a fresh topology per
// point (shard count is a build-time property of the tier).
func RunShardScaling(ctx context.Context, opts ShardScalingOptions, logf func(string, ...any)) ([]ShardScalingPoint, error) {
	if len(opts.ShardCounts) == 0 {
		return nil, fmt.Errorf("harness: shard scaling needs shard counts")
	}
	var points []ShardScalingPoint
	for _, n := range opts.ShardCounts {
		if n < 1 {
			return nil, fmt.Errorf("harness: bad shard count %d", n)
		}
		if logf != nil {
			logf("running shard scaling: %d shard(s), %d clients...", n, opts.Clients)
		}
		topo, err := Build(Options{
			Arch:            ESRBES,
			Algo:            AlgCachedEJB,
			Shards:          n,
			OneWayDelay:     opts.OneWayDelay,
			Populate:        opts.Populate,
			Protocol:        opts.Protocol,
			DBCommitService: opts.DBCommitService,
		})
		if err != nil {
			return points, err
		}
		before := obs.Default.Snapshot()
		res, err := runClients(ctx, topo, opts.Clients, opts.SessionsPerClient, opts.WarmupSessions, opts.Workload)
		diff := obs.Default.Diff(before)
		perShard := make(map[int]uint64, n)
		for i, be := range topo.Backends {
			perShard[i] = be.CommitsApplied()
		}
		topo.Close()
		if err != nil {
			return points, fmt.Errorf("harness: %d shards: %w", n, err)
		}

		p := ShardScalingPoint{
			Shards:          n,
			Throughput:      res.Throughput,
			MeanLatencyMs:   res.Latency.Mean,
			Failures:        res.Failures,
			Interactions:    res.Interactions,
			TwoPCCommits:    diff.Counters["shard.2pc_commits"],
			TwoPCAborts:     diff.Counters["shard.2pc_aborts"],
			ReadonlyCommits: diff.Counters["shard.readonly_commits"],
			ScatterQueries:  diff.Counters["shard.scatter_queries"],
			PerShardCommits: perShard,
		}
		// Every commit set an edge shipped and did not lose took exactly
		// one of the three commit paths; the fast path is whatever the
		// two multi-shard paths did not take (all of it at one shard,
		// where no router sits on the path to count).
		shipped := diff.Histograms["span.slicache.commit"].Count - diff.Counters["slicache.conflicts"]
		p.FastpathCommits = shipped - p.TwoPCCommits - p.ReadonlyCommits
		points = append(points, p)
		if logf != nil {
			logf("  %d shard(s): %.1f committed/s, 2PC fraction %.1f%%, %d failures",
				n, p.Throughput, 100*p.TwoPCFraction(), p.Failures)
		}
	}
	return points, nil
}

// WriteShardScaling renders the sweep as a text table.
func WriteShardScaling(w io.Writer, points []ShardScalingPoint) {
	fmt.Fprintln(w, "Extension: shard-scaling the datacenter tier (not in the paper;")
	fmt.Fprintln(w, "the paper's back end is a single server — this partitions it)")
	fmt.Fprintf(w, "%8s %14s %10s %10s %10s %10s %10s\n",
		"shards", "committed/s", "mean ms", "failures", "2pc-frac", "2pc", "fastpath")
	for _, p := range points {
		fmt.Fprintf(w, "%8d %14.1f %10.2f %10d %9.1f%% %10d %10d\n",
			p.Shards, p.Throughput, p.MeanLatencyMs, p.Failures,
			100*p.TwoPCFraction(), p.TwoPCCommits, p.FastpathCommits)
	}
	if len(points) > 1 && points[0].Shards == 1 {
		base := points[0].Throughput
		if base > 0 {
			fmt.Fprintf(w, "speedup vs 1 shard:")
			for _, p := range points[1:] {
				fmt.Fprintf(w, "  %dx shards = %.2fx", p.Shards, p.Throughput/base)
			}
			fmt.Fprintln(w)
		}
	}
}

// WriteShardsCSV exports the sweep in long format, one row per
// (shard count, shard): the per-shard commit balance plus the point's
// aggregate columns repeated, so the file slices either way.
func WriteShardsCSV(w io.Writer, points []ShardScalingPoint) error {
	cw := csv.NewWriter(w)
	header := []string{
		"shard_count", "shard", "shard_commits",
		"committed_per_sec", "mean_ms", "failures", "interactions",
		"fastpath_commits", "twopc_commits", "twopc_aborts",
		"readonly_commits", "scatter_queries", "twopc_fraction",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, p := range points {
		shards := make([]int, 0, len(p.PerShardCommits))
		for s := range p.PerShardCommits {
			shards = append(shards, s)
		}
		sort.Ints(shards)
		for _, s := range shards {
			rec := []string{
				strconv.Itoa(p.Shards),
				strconv.Itoa(s),
				strconv.FormatUint(p.PerShardCommits[s], 10),
				strconv.FormatFloat(p.Throughput, 'f', 2, 64),
				strconv.FormatFloat(p.MeanLatencyMs, 'f', 3, 64),
				strconv.Itoa(p.Failures),
				strconv.Itoa(p.Interactions),
				strconv.FormatUint(p.FastpathCommits, 10),
				strconv.FormatUint(p.TwoPCCommits, 10),
				strconv.FormatUint(p.TwoPCAborts, 10),
				strconv.FormatUint(p.ReadonlyCommits, 10),
				strconv.FormatUint(p.ScatterQueries, 10),
				strconv.FormatFloat(p.TwoPCFraction(), 'f', 4, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
