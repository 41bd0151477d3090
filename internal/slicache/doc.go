// Package slicache implements the paper's core contribution: the Single
// Logical Image (SLI) EJB caching runtime. A cache-enhanced application
// server keeps transactionally-consistent cached copies of entity state:
//
//   - a per-transaction transient store tracks every bean a transaction
//     touches, with its before-image (the state and version first
//     observed) and its current state;
//   - a common transient store, shared across transactions, provides
//     inter-transaction caching: beans cached by one transaction are
//     visible to concurrent and subsequent transactions (§2.3);
//   - concurrency control is optimistic (detection-based, deferred
//     validity checking): at commit, the transaction's before-images are
//     validated against the persistent store, and the after-images are
//     applied only if no conflict exists;
//   - the persistent store pushes invalidation notices after commits, and
//     the runtime evicts the affected common-store entries and cached
//     finder results. No edge hears its own commit: it installs the
//     commit's after-images itself, in the common store and in every
//     cached finder result the commit touches, unless a write it heard
//     while the commit was in flight may be newer. The common
//     store is unbounded; when the notice stream drops, the runtime
//     clears it and the finder cache, since notices may be missed, and
//     resubscribes.
//
// The runtime implements component.ResourceManager, so applications
// written against the component container are cache-enabled without any
// code change — the transparency requirement of §1.3. Its transactions
// also implement the optional component.MultiLoader: a Find naming
// several beans fetches the ones it misses concurrently, so a cold
// multi-bean transaction waits for one round trip on the high-latency
// path instead of one per bean, with the same store accesses, read
// proofs and counts as loading them one by one.
//
// How a commit set reaches the validator is the Loader's CommitShipping:
// whole to a back-end (split servers), or statement by statement to the
// database (combined servers). On combined servers a set that writes
// nothing skips the database's transaction protocol: its read proofs go
// as one autocommit validation, one round trip, and a set that writes
// pays Begin plus one statement batch.
//
// Cache effectiveness is observable through the slicache.* metrics
// (hits, misses, conflicts, invalidations, ...), and the remote work a
// transaction causes — miss fetches, finder queries, commit shipping —
// is timed as slicache.* trace spans (see OBSERVABILITY.md).
package slicache
