// Package memento defines the value-object layer shared by every tier of
// the system: entity keys, typed field values, mementos (serializable
// snapshots of entity-bean state), commit sets, predicate queries, and
// the one rule for whether a committed write overlaps a cached query
// result (Query.Overlaps).
//
// The paper's caching framework cannot ship EJBs between address spaces
// (the EJB specification forbids serializing entity beans), so it ships
// "mementos" instead (§2.2): value objects that carry the bean's
// identity and state. The memento captured when a transaction first
// touches a bean is its before-image; the memento captured at commit
// time is its after-image; a CommitSet bundles a whole transaction's
// images for the single-round-trip commit of §3.3. This package is
// deliberately free of any storage dependency so that every tier (edge
// server, back-end server, database server) can exchange these values.
// codec.go is their one byte encoding, built on package wire's
// primitives and name table: dbwire's messages carry rows in it, and
// sqlstore's snapshot file is written in it.
package memento
