package slicache

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"edgeejb/internal/memento"
)

// FinderCache is the transactional finder-result cache: committed query
// results keyed by normalized query, the transactional method caching
// of Pfeifer & Lockemann applied to the paper's custom finders. Each
// entry is a normalized query and the rows it returned. An incoming
// commit notice invalidates every entry the committed write set
// overlaps (memento.Query.Overlaps): a row that leaves a result is one
// of its rows, and a row that enters it matches in its after-image,
// which per-key version bumps alone cannot express. The store sends an
// edge no notice of its own commit: Commit installs that commit's
// after-images in the entries it touches instead, as the common store
// takes its beans. A result is stored, and a commit installed, only
// if no write its fill heard overlaps it (see Fill), so no write that
// landed while the store call was in flight is missed. Correctness at
// use time still rests on optimistic validation: rows served from a
// cached result enter the transaction's read set and are proven at
// commit like any other read.
type FinderCache struct {
	mu      sync.Mutex
	enabled bool // set at construction only, so read without mu
	entries map[string]finderEntry

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
}

// finderEntry is one cached result set: the normalized query, the
// committed rows it returned and when they were known current.
type finderEntry struct {
	q        memento.Query
	mems     []memento.Memento // treated as immutable
	storedAt time.Time
}

// FinderCacheStats is a snapshot of finder-cache counters.
type FinderCacheStats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
	Entries       int
}

// NewFinderCache returns an empty finder cache. A disabled cache misses
// on every lookup and stores nothing — today's always-refetch behavior.
func NewFinderCache(enabled bool) *FinderCache {
	return &FinderCache{
		enabled: enabled,
		entries: make(map[string]finderEntry),
	}
}

// key renders q's cache key once for get and put; a disabled cache
// renders none.
func (c *FinderCache) key(q memento.Query) string {
	if !c.enabled {
		return ""
	}
	return q.CacheKey()
}

// get returns the cached result set under a rendered cache key, if
// present: the committed rows (read-only — callers clone before
// mutating) and when they were known current. An enabled cache counts
// the lookup as a hit or a miss.
func (c *FinderCache) get(ck string) ([]memento.Memento, time.Time, bool) {
	if !c.enabled {
		return nil, time.Time{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[ck]
	if !ok {
		c.misses.Add(1)
		obsFinderMisses.Inc()
		return nil, time.Time{}, false
	}
	c.hits.Add(1)
	obsFinderHits.Inc()
	return e.mems, e.storedAt, true
}

// put stores the reply of fill f, q's committed result set, under q's
// rendered cache key ck, with at, when the rows were known current. It
// stores nothing if f was spoiled or a write f heard overlaps the query
// and its rows. The rows are retained as given and must not be mutated
// afterwards (the cache runtime only ever hands out clones of them).
func (c *FinderCache) put(f *Fill, ck string, q memento.Query, mems []memento.Memento, at time.Time) {
	if !c.enabled {
		return
	}
	q = q.Normalize()
	c.mu.Lock()
	defer c.mu.Unlock()
	if f.spoiled || q.Overlaps(mems, f.writes) {
		return
	}
	c.entries[ck] = finderEntry{q: q, mems: mems, storedAt: at}
}

// Commit installs this edge's own commit, whose fill f was opened
// before it was sent, in every entry it overlaps: written holds each
// written or created row's after-image at its new version, removed the
// keys the commit removed, and own both as ownWrites describes them.
// In each such entry a written row that matches the query replaces its
// old image or joins in key order, and a row that no longer matches or
// was removed leaves. The entry is dropped instead when f was spoiled
// or a write f heard overlaps the query and its new rows: that write
// may be newer than the commit, so the installed rows could be stale.
// Commit creates no entry.
func (c *FinderCache) Commit(f *Fill, own []memento.WriteDesc, written []memento.Memento, removed []memento.Key) {
	if !c.enabled {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for ck, e := range c.entries {
		if !e.q.Overlaps(e.mems, own) {
			continue
		}
		mems := withCommit(e.q, e.mems, written, removed)
		if f.spoiled || e.q.Overlaps(mems, f.writes) {
			delete(c.entries, ck)
			n++
			continue
		}
		e.mems = mems
		c.entries[ck] = e
	}
	c.countInvalidations(n)
}

// ownWrites describes an own commit's written rows and removed keys as
// the write descriptors its notice would carry.
func ownWrites(written []memento.Memento, removed []memento.Key) []memento.WriteDesc {
	own := make([]memento.WriteDesc, 0, len(written)+len(removed))
	for _, m := range written {
		own = append(own, memento.WriteDesc{Key: m.Key, After: m.Fields})
	}
	for _, k := range removed {
		own = append(own, memento.WriteDesc{Key: k, Removed: true})
	}
	return own
}

// withCommit returns a new slice holding q's result rows with a
// commit's writes applied: rows the commit wrote or removed leave, then
// every written row that matches q joins, in key order. rows itself is
// shared with readers and is not touched.
func withCommit(q memento.Query, rows, written []memento.Memento, removed []memento.Key) []memento.Memento {
	touched := func(k memento.Key) bool {
		for _, m := range written {
			if m.Key == k {
				return true
			}
		}
		return slices.Contains(removed, k)
	}
	out := make([]memento.Memento, 0, len(rows)+len(written))
	for _, m := range rows {
		if !touched(m.Key) {
			out = append(out, m)
		}
	}
	for _, m := range written {
		if q.Matches(m) {
			out = append(out, m)
		}
	}
	q.Sort(out)
	return out
}

// Invalidate drops every entry the committed write set overlaps and
// returns how many entries were dropped. A blind write drops every
// entry reading its table.
func (c *FinderCache) Invalidate(writes []memento.WriteDesc) int {
	if !c.enabled || len(writes) == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for ck, e := range c.entries {
		if e.q.Overlaps(e.mems, writes) {
			delete(c.entries, ck)
			n++
		}
	}
	c.countInvalidations(n)
	return n
}

// countInvalidations counts n dropped entries.
func (c *FinderCache) countInvalidations(n int) {
	if n > 0 {
		c.invalidations.Add(uint64(n))
		obsFinderInvalidations.Add(uint64(n))
	}
}

// Clear empties the cache (stream loss, resubscription).
func (c *FinderCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.entries)
}

// Len returns the number of cached result sets.
func (c *FinderCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the cache's counters.
func (c *FinderCache) Stats() FinderCacheStats {
	c.mu.Lock()
	entries := len(c.entries)
	c.mu.Unlock()
	return FinderCacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       entries,
	}
}
