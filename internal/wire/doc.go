// Package wire is the shared transport layer under every TCP protocol
// in this repository: the database driver protocol (package dbwire, and
// package backend riding on it) and the application-server client
// protocol (package appserver). Each previously carried its own framing,
// dialing, pooling, and accept-loop code; every byte the experiments
// measure crosses this one implementation instead, so the edge↔origin
// RPC path can be optimized and instrumented in a single place.
//
// The transport is a length-prefixed request/response protocol with one
// fixed frame format — a binary header, then a body that encodes itself
// (Body); nothing is negotiated per connection (see frame.go):
//
//   - Each direction of a connection keeps an append-only name table
//     (Names): a body writes a table or field name as a literal the
//     first time it crosses the connection and as an index after that.
//     Frames are encoded in the order they reach the wire and every
//     frame is decoded in the order it arrives, so both ends of a
//     direction hold the same table; a fresh connection starts empty.
//   - Client multiplexes concurrent requests over one shared connection
//     using request IDs (pipelining: N concurrent one-shot calls cost ~1
//     round-trip wall time on a high-latency path, instead of N
//     connections or N serialized round trips). IDs count per client,
//     not per connection, so a run's bytes on the wire do not depend on
//     which connection a concurrent call took.
//   - Stream is a connection of its own that the server switches into
//     push mode (invalidation subscriptions). OpenStream dials it and
//     runs its opening request; after that it only receives pushes,
//     until either end hangs up. Request/response traffic, a database
//     transaction's statements included, rides the shared connection.
//   - One rule retries a failed Call and a failed opening request alike
//     (Client.retrying), so no protocol above keeps a retry loop of its
//     own.
//   - A call's context is the one owner of its deadline: the wait for
//     the reply selects on ctx.Done(), and the write, which that select
//     cannot reach, runs under SetWriteDeadline at the same instant. The
//     reader sets no deadline, so a call against a stalled server
//     returns once ctx.Err() is set, and exactly one side, the reader
//     or the abandoning caller, decides each call's outcome.
//   - A frame costs one read: the frame reader reads as far ahead as
//     its one grow-only buffer holds and carries the bytes past a frame
//     over to the next, so a frame whole in the socket takes a single
//     read, length prefix included.
//   - A server request runs on the goroutine that read it. The
//     connection's reading role moves instead: its holder decodes a
//     request, passes the role to a goroutine of the connection parked
//     after its own request (or to a new one), runs the request, and
//     parks once the response is written. Decoding stays in arrival
//     order, one goroutine at a time, while handlers run concurrently
//     and a blocked one never stops the reading.
//   - Server drains gracefully on Close: stop accepting, finish
//     in-flight requests, bounded by a drain timeout, then force-close.
//   - A Client keeps per-op counts and byte totals, exposed as a Stats
//     snapshot: the shared path's round trips and bytes by operation,
//     which the delay proxy, counting bytes alone, cannot tell apart.
//   - Frame headers carry an optional trace/span pair, so a span tree
//     started at the client reassembles across tiers; untraced requests
//     pay no bytes for it (see OBSERVABILITY.md).
package wire
