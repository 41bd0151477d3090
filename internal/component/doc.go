// Package component implements the enterprise-component model that
// stands in for EJB entity beans: entities with identity and
// memento-serializable state, homes keyed by table, and a container that
// brackets business logic in transactions and delegates data access to a
// pluggable resource manager.
//
// Three resource managers exist, matching the paper's three algorithms:
//
//   - JDBC (this package): hand-optimized direct access with a
//     per-transaction statement cache, pessimistic locking.
//   - Vanilla EJB / BMP (this package): bean-managed persistence with
//     the classic container behaviors — ejbLoad on every access,
//     unconditional ejbStore at commit, and N+1 loads after finders.
//   - Cached EJB / SLI (package slicache): the paper's contribution.
//
// A manager whose transactions can load several entities faster together
// than one by one implements the optional MultiLoader beside DataTx;
// Tx.Find hands it every entity one call names (the SLI cache overlaps
// its miss fetches). JDBC and BMP do not: their statements belong to one
// database transaction and run in argument order.
//
// Application code is written once against Container/Tx and runs
// unchanged under any resource manager — the "transparent
// cache-enabling" requirement of §1.3.
package component
