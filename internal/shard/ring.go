package shard

import (
	"edgeejb/internal/memento"
)

// Ring is the deterministic key→shard map shared by every tier: the
// edge routers, the per-shard back-end servers, and the populate logic
// that seeds each shard's database with exactly the rows it owns. For
// a fixed shard count the mapping is a pure function of the placement
// string, so any two processes built from the same source agree on
// every key's owner without coordination.
//
// Resizing is out of scope: a deployment picks its shard count up
// front and every process is started with the same -shards value. (A
// consistent-hash ring with virtual nodes would make resizes cheap;
// nothing in the Router depends on the mapping beyond determinism, so
// that is a drop-in change later.)
type Ring struct {
	n     int
	place func(memento.Key) string
}

// RingOption configures a Ring.
type RingOption func(*Ring)

// WithPlacement overrides how a key maps to its placement string — the
// unit of co-location. Keys with equal placement strings always land on
// the same shard. The default places every key by "table/id", which
// spreads rows uniformly but gives no co-location; domain packages can
// do better (trade.ShardPlacement groups each user's account, profile,
// registry and holdings so the common write sets stay single-shard).
func WithPlacement(place func(memento.Key) string) RingOption {
	return func(r *Ring) { r.place = place }
}

// NewRing builds a ring over n shards (n >= 1).
func NewRing(n int, opts ...RingOption) *Ring {
	if n < 1 {
		n = 1
	}
	r := &Ring{n: n, place: defaultPlacement}
	for _, o := range opts {
		o(r)
	}
	return r
}

func defaultPlacement(k memento.Key) string { return k.Table + "/" + k.ID }

// Shards returns the shard count.
func (r *Ring) Shards() int { return r.n }

// Of returns the shard owning a key.
func (r *Ring) Of(key memento.Key) int { return r.OfPlacement(r.place(key)) }

// OfPlacement returns the shard owning a placement string (FNV-1a over
// the string, mod shard count). Exposed so query routing can reuse the
// exact same hash when a finder's equality predicate pins a placement.
func (r *Ring) OfPlacement(p string) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(p); i++ {
		h ^= uint32(p[i])
		h *= prime32
	}
	return int(h % uint32(r.n))
}

// Split partitions a commit set by owning shard: every read proof,
// write, create and remove lands in its owner's sub-set, and every
// sub-set keeps the set's origin. The map has one entry per
// participating shard; a single-entry map is the single-shard fast
// path, anything larger needs two-phase commit.
func (r *Ring) Split(cs memento.CommitSet) map[int]memento.CommitSet {
	if r.n == 1 {
		return map[int]memento.CommitSet{0: cs}
	}
	out := make(map[int]memento.CommitSet)
	for _, p := range cs.Reads {
		s := r.Of(p.Key)
		sub := out[s]
		sub.Reads = append(sub.Reads, p)
		out[s] = sub
	}
	for _, w := range cs.Writes {
		s := r.Of(w.Key)
		sub := out[s]
		sub.Writes = append(sub.Writes, w)
		out[s] = sub
	}
	for _, c := range cs.Creates {
		s := r.Of(c.Key)
		sub := out[s]
		sub.Creates = append(sub.Creates, c)
		out[s] = sub
	}
	for _, p := range cs.Removes {
		s := r.Of(p.Key)
		sub := out[s]
		sub.Removes = append(sub.Removes, p)
		out[s] = sub
	}
	for s, sub := range out {
		sub.Origin = cs.Origin
		out[s] = sub
	}
	return out
}

// MutationShards returns the shards owning at least one mutation
// (write, create or remove) in a split. Read-only participants are the
// difference between the split's key set and this set.
func MutationShards(split map[int]memento.CommitSet) []int {
	var out []int
	for s, sub := range split {
		if sub.Mutations() > 0 {
			out = append(out, s)
		}
	}
	return out
}
