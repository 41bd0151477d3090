// Package sqlstore implements the persistent datastore that plays the
// role of the paper's DB2 database server: a multi-table, in-memory
// relational store with ACID transactions, multi-granularity pessimistic
// locking (row S/X locks under table intention locks), predicate
// queries, and row versions. A row's version is the number of the
// commit that last wrote it, from one store-wide commit counter.
//
// Two access paths exist, mirroring the paper:
//
//   - Pessimistic transactions (Begin / Tx) hold strict two-phase locks
//     until commit. The JDBC and vanilla-EJB resource managers use this
//     path, one wire round trip per statement.
//   - Optimistic commit-set application (ApplyCommitSet) validates a
//     whole transaction's read versions and applies its after-images in
//     one internal pessimistic transaction. The back-end server of the
//     split-servers configuration uses this path; it is timed as a
//     "sqlstore.apply" trace span.
//
// Every committed mutation is broadcast as a Notice so that
// cache-enhanced application servers can invalidate stale entries
// ("invalidation when notified by the server about an update", §1.4).
// Transaction outcomes feed the sqlstore.* metrics (see
// OBSERVABILITY.md).
package sqlstore
