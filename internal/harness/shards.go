package harness

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// The shard-scaling extension: the same concurrent Trade workload run
// against datacenter tiers of increasing shard count, reporting
// throughput, the 2PC fraction the placement leaves cross-shard, and the
// per-shard commit balance.
//
// The whole benchmark runs on one host, so real CPU parallelism cannot
// carry the scaling story. Options.DBCommitService models the datacenter
// instead: each shard's store serializes an artificial per-commit-set
// validation service time, so one shard saturates at roughly
// 1/DBCommitService commit sets per second and N shards at N times
// that — minus what cross-shard coordination costs. What the curve
// measures is therefore the routing and 2PC overhead, which is real,
// not the host's core count.

// ShardScalingPoint is one shard count's measurement.
type ShardScalingPoint struct {
	Shards int
	Pass
	// PerShardCommits maps shard index to the commit sets (and 2PC
	// sub-sets) its back-end server applied during the pass.
	PerShardCommits map[int]uint64
}

// TwoPCCommits counts the commit sets that needed cross-shard 2PC.
func (p ShardScalingPoint) TwoPCCommits() uint64 { return p.Metrics.Counters["shard.2pc_commits"] }

// TwoPCAborts counts the cross-shard commits 2PC aborted.
func (p ShardScalingPoint) TwoPCAborts() uint64 { return p.Metrics.Counters["shard.2pc_aborts"] }

// ReadonlyCommits counts the multi-shard read-only commits.
func (p ShardScalingPoint) ReadonlyCommits() uint64 {
	return p.Metrics.Counters["shard.readonly_commits"]
}

// ScatterQueries counts the finders sent to every shard.
func (p ShardScalingPoint) ScatterQueries() uint64 {
	return p.Metrics.Counters["shard.scatter_queries"]
}

// FastpathCommits counts the single-shard commits. Every commit set an
// edge shipped and did not lose took exactly one of the three commit
// paths; the fast path is whatever the two multi-shard paths did not
// take (all of it at one shard, where no router sits on the path to
// count).
func (p ShardScalingPoint) FastpathCommits() uint64 {
	shipped := p.Metrics.Histograms["span.slicache.commit"].Count - p.Metrics.Counters["slicache.conflicts"]
	return shipped - p.TwoPCCommits() - p.ReadonlyCommits()
}

// committed is every commit set the pass committed, on any path.
func (p ShardScalingPoint) committed() uint64 {
	return p.FastpathCommits() + p.TwoPCCommits() + p.ReadonlyCommits()
}

// TwoPCFraction is the share of committed sets that needed cross-shard
// two-phase commit.
func (p ShardScalingPoint) TwoPCFraction() float64 {
	if p.committed() == 0 {
		return 0
	}
	return float64(p.TwoPCCommits()) / float64(p.committed())
}

// RunShardScaling builds an ES/RBES cached-EJB topology of opts at each
// shard count (shard count is a build-time property of the tier), warms
// it, and measures one pass of clients concurrent clients.
func RunShardScaling(ctx context.Context, opts Options, scale Scale, shardCounts []int, clients int, logf func(string, ...any)) ([]ShardScalingPoint, error) {
	if len(shardCounts) == 0 {
		return nil, fmt.Errorf("harness: shard scaling needs shard counts")
	}
	opts.Arch, opts.Algo = ESRBES, AlgCachedEJB
	var points []ShardScalingPoint
	for _, n := range shardCounts {
		if n < 1 {
			return nil, fmt.Errorf("harness: bad shard count %d", n)
		}
		if logf != nil {
			logf("running shard scaling: %d shard(s), %d clients...", n, clients)
		}
		opts.Shards = n
		p, err := measureShards(ctx, opts, scale, clients)
		if err != nil {
			return points, fmt.Errorf("harness: %d shards: %w", n, err)
		}
		points = append(points, p)
		if logf != nil {
			logf("  %d shard(s): %.1f committed/s, 2PC fraction %.1f%%, %d failures",
				n, p.Load.Throughput, 100*p.TwoPCFraction(), p.Load.Failures)
		}
	}
	return points, nil
}

// measureShards measures one shard count's topology.
func measureShards(ctx context.Context, opts Options, scale Scale, clients int) (ShardScalingPoint, error) {
	topo, err := Build(opts)
	if err != nil {
		return ShardScalingPoint{}, err
	}
	defer topo.Close()
	if err := topo.warm(ctx, scale); err != nil {
		return ShardScalingPoint{}, err
	}
	before := make([]uint64, len(topo.Backends))
	for i, be := range topo.Backends {
		before[i] = be.CommitsApplied()
	}
	pass, err := topo.Measure(ctx, topo.clients(clients, scale))
	if err != nil {
		return ShardScalingPoint{}, err
	}
	p := ShardScalingPoint{Shards: opts.Shards, Pass: pass, PerShardCommits: make(map[int]uint64, len(before))}
	for i, be := range topo.Backends {
		p.PerShardCommits[i] = be.CommitsApplied() - before[i]
	}
	return p, nil
}

// WriteShardScaling renders the sweep as a text table.
func WriteShardScaling(w io.Writer, points []ShardScalingPoint) {
	fmt.Fprintln(w, "Extension: shard-scaling the datacenter tier (not in the paper;")
	fmt.Fprintln(w, "the paper's back end is a single server — this partitions it)")
	fmt.Fprintf(w, "%8s %14s %10s %10s %10s %10s %10s\n",
		"shards", "committed/s", "mean ms", "failures", "2pc-frac", "2pc", "fastpath")
	for _, p := range points {
		fmt.Fprintf(w, "%8d %14.1f %10.2f %10d %9.1f%% %10d %10d\n",
			p.Shards, p.Load.Throughput, p.MeanLatencyMs(), p.Load.Failures,
			100*p.TwoPCFraction(), p.TwoPCCommits(), p.FastpathCommits())
	}
	if len(points) > 1 && points[0].Shards == 1 {
		base := points[0].Load.Throughput
		if base > 0 {
			fmt.Fprintf(w, "speedup vs 1 shard:")
			for _, p := range points[1:] {
				fmt.Fprintf(w, "  %dx shards = %.2fx", p.Shards, p.Load.Throughput/base)
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
				strconv.FormatFloat(p.Load.Throughput, 'f', 2, 64),
				strconv.FormatFloat(p.MeanLatencyMs(), 'f', 3, 64),
				strconv.Itoa(p.Load.Failures),
				strconv.Itoa(p.Load.Interactions),
				strconv.FormatUint(p.FastpathCommits(), 10),
				strconv.FormatUint(p.TwoPCCommits(), 10),
				strconv.FormatUint(p.TwoPCAborts(), 10),
				strconv.FormatUint(p.ReadonlyCommits(), 10),
				strconv.FormatUint(p.ScatterQueries(), 10),
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
