package shard

import "edgeejb/internal/obs"

// Shard-router metrics. Names are documented in OBSERVABILITY.md (CI
// cross-checks the registrations against the docs).
var (
	// obsReadonlyCommits counts multi-shard read-only sets validated by
	// per-shard scatter (no 2PC, no global serialization point).
	obsReadonlyCommits = obs.Default.Counter("shard.readonly_commits")
	// obsTwoPCCommits / obsTwoPCAborts count full two-phase outcomes. A
	// single-shard commit takes the fast path and is counted by no
	// router metric: the harness derives it from the commits the edges
	// shipped (ShardScalingPoint.FastpathCommits), and the per-shard
	// balance from each back-end's own commit count.
	obsTwoPCCommits = obs.Default.Counter("shard.2pc_commits")
	obsTwoPCAborts  = obs.Default.Counter("shard.2pc_aborts")
	// obsTwoPCHeuristics counts mixed second-phase outcomes: every
	// participant voted yes but at least one commit-prepared then failed
	// (e.g. its presumed-abort TTL expired first). See DESIGN.md's
	// recovery table.
	obsTwoPCHeuristics = obs.Default.Counter("shard.2pc_heuristics")
	// obsScatterQueries counts finder queries fanned out to every shard
	// (no placement affinity pruned them to one).
	obsScatterQueries = obs.Default.Counter("shard.scatter_queries")
)
