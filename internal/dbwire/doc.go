// Package dbwire implements the network protocol between application
// servers and the database tier: an RPC over the shared transport in
// package wire, with self-encoding binary bodies (codec.go), in which
// every statement is one request/response round trip. This mirrors the role of the JDBC driver protocol in the paper —
// the per-statement round trip is precisely what makes the ES/RDB
// architecture sensitive to path latency (Table 2), and the
// single-message ApplyCommitSet operation is what lets the
// split-servers configuration commit in one round trip.
//
// The same protocol also carries the server-push invalidation stream
// that cache-enhanced application servers subscribe to ("invalidation
// when notified by the server about an update", §1.4).
package dbwire
