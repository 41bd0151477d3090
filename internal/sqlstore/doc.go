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
// A stored row is its cells, not a field map (memento.Row). Each table
// keeps a memento.Columns list that only grows: a field name the table
// has not seen takes the next column, under the store's write lock. A
// row is its version and one 32-byte cell — a column, a kind and the
// payload that kind selects — per field it was written with, so a
// zero-kind value or a missing field round-trips exactly and no row
// pays for columns it does not use. A value reads back in its Stored
// form, as it would across the wire. Get, GetForUpdate, Query and Dump
// build a fresh field map from the cells, which the caller owns;
// predicates and indexes test a cell directly. Seed, commits and
// Restore build cells from the incoming map and keep no reference to
// it.
//
// Every committed mutation is broadcast as a Notice so that
// cache-enhanced application servers can invalidate stale entries
// ("invalidation when notified by the server about an update", §1.4).
// A notice's after-image is the committing transaction's own pending
// image, which Put, Insert and CheckedPut cloned from their caller.
// Transaction outcomes feed the sqlstore.* metrics (see
// OBSERVABILITY.md).
//
// Dump and Restore (snapshot.go) carry the committed state across a
// restart, its rows in the wire's row encoding (memento.AppendMemento).
// A restored store runs at a new incarnation, the high bits of every
// commit number it issues, so no number is issued twice, not even one
// lost with the commits after the last snapshot.
package sqlstore
