// Package shard partitions the datacenter tier by bean primary key.
//
// The paper's split-servers architecture (ES/RBES) already moved the
// commit unit to a whole optimistic commit set shipped edge→datacenter
// in one frame. That unit is exactly what a partitioned datacenter can
// route: this package adds the deterministic key→shard map (Ring) and
// an edge-side storeapi.Conn (Router) that spreads reads, finders and
// commit sets across N independent backendd/dbserverd pairs, each an
// unmodified copy of the single-shard datacenter tier.
//
// The paper never shards — every configuration funnels commits through
// one database server, which is the last serial resource once the
// read path is cached at the edges and the wire cost is one frame per
// commit. Sharding multiplies that resource. The design keeps the
// paper's commit semantics per shard (optimistic validation, conflict
// attribution) and pays coordination only when a commit set actually
// spans shards:
//
//   - one participant → the existing one-frame fast path, unchanged;
//   - several participants, read-only → per-shard scatter validation
//     (each shard proves its own read subset; no 2PC);
//   - several participants with mutations → edge-coordinated
//     two-phase commit with presumed abort (see Router and
//     sqlstore's prepare.go).
//
// Placement decides how often the expensive case happens. The Ring
// hashes a placement string, not the raw key, so a domain package can
// co-locate the rows one interaction touches (trade.ShardPlacement
// pins each user's account, profile, registry and holdings to one
// shard); with that, the default Trade2 mix keeps the fast path
// dominant and 2PC is paid only for genuinely cross-user/cross-shard
// sets such as a buy whose quote lives elsewhere.
package shard
