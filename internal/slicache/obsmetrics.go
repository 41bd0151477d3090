package slicache

import "edgeejb/internal/obs"

// The cache runtime's process-wide obs metrics, summed across every
// CommonStore and Manager in the process. The per-instance Stats
// snapshots are the harness's source of truth for everything a topology
// reports; what is registered here is only what Stats cannot give a
// reader — a count attributed per bean, a count a phase diff needs
// process-wide, a latency distribution. Names are documented in
// OBSERVABILITY.md with the reader of each (CI cross-checks both).
var (
	// Per-bean cache traffic, labeled by memento table — forensics.txt's
	// "cache by bean" table. The table set is small and fixed by the
	// schema, so the family cap is never a concern in practice.
	obsHitsBy   = obs.Default.LabeledCounter("slicache.hits", "bean")
	obsMissesBy = obs.Default.LabeledCounter("slicache.misses", "bean")

	// obsConflicts counts commits rejected by validation; the shard
	// sweep subtracts it from the commit spans to get commits shipped.
	obsConflicts = obs.Default.Counter("slicache.conflicts")

	// Finder-result cache counters (FinderCache), read per phase for the
	// finder table, finder_cache.csv and cache.finder_hit_ratio.
	// Invalidations count cached result sets dropped because a committed
	// write set overlapped their query or rows.
	obsFinderHits          = obs.Default.Counter("slicache.finder_hits")
	obsFinderMisses        = obs.Default.Counter("slicache.finder_misses")
	obsFinderInvalidations = obs.Default.Counter("slicache.finder_invalidations")

	// obsInvalLatency is the push latency of invalidation notices: origin
	// commit at the store to arrival at this edge.
	obsInvalLatency = obs.Default.Histogram("slicache.invalidation_latency")
	// obsStaleness is the staleness window each notice closed: how long a
	// now-invalidated entry could have been served stale.
	obsStaleness = obs.Default.Histogram("slicache.staleness_window")
)
