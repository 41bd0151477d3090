package shard

import "edgeejb/internal/obs"

// Shard-router metrics. Names are documented in OBSERVABILITY.md (CI
// cross-checks the registrations against the docs).
var (
	// obsShardCommits counts committed commit sets per shard — the curve
	// that shows whether load actually spreads across the ring.
	obsShardCommits = obs.Default.LabeledCounter("shard.commits", "shard")
	// obsFastpathCommits counts single-shard commits that took the
	// unchanged one-frame fast path.
	obsFastpathCommits = obs.Default.Counter("shard.fastpath_commits")
	// obsReadonlyCommits counts multi-shard read-only sets validated by
	// per-shard scatter (no 2PC, no global serialization point).
	obsReadonlyCommits = obs.Default.Counter("shard.readonly_commits")
	// obsTwoPCCommits / obsTwoPCAborts count full two-phase outcomes; the
	// 2PC fraction of a run is 2pc_commits / (fastpath + readonly + 2pc).
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
