// Package backend implements the back-end application server of the
// split-servers configuration (§2.4, Figure 1): a process deployed next
// to the database that hosts the cache-miss and optimistic-commit logic
// on behalf of cache-enhanced edge application servers.
//
// The edge servers talk to the back-end over the dbwire protocol across
// the high-latency path: one round trip for a cache-miss fetch, one
// round trip for a finder query, and — crucially — one round trip for an
// entire transaction commit (ApplyCommitSet). The back-end hands each
// commit set, as it arrives, to the database as one ApplyCommitSet
// exchange over its low-latency path; the database validates and
// applies the set whole. The paper's back-end makes "multiple accesses
// to the database server ... over a low-latency path" (§4.4); ours
// makes one, which leaves the paper's variable — round trips on the
// high-latency path — untouched (see DESIGN.md, "One database access
// per commit set").
//
// Each exchange is timed as a "backend.apply" trace span, and its
// outcome is counted by Server.CommitsApplied and
// Server.CommitsRejected.
package backend
