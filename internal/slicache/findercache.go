package slicache

import (
	"sync"
	"sync/atomic"
	"time"

	"edgeejb/internal/memento"
)

// FinderCache is the transactional finder-result cache: committed query
// results keyed by normalized query, the transactional method caching
// of Pfeifer & Lockemann applied to the paper's custom finders. Each
// entry carries the footprint the query covered, which Put works out
// from the query and its rows — the only place a footprint is built. An
// incoming commit notice invalidates every entry whose footprint
// overlaps the committed write set: a row that leaves a result is one
// of its keys, and a row that enters it matches in its after-image,
// which per-key version bumps alone cannot express. A result is stored
// only if its fill survived (see StartFill), so no write that landed
// while the store call was in flight is missed. Correctness at use time
// still rests on optimistic validation: rows served from a cached result
// enter the transaction's read set and are proven at commit like any
// other read.
type FinderCache struct {
	mu      sync.Mutex
	enabled bool // set at construction only, so read without mu
	entries map[string]finderEntry
	fills   map[*Fill]struct{} // open fills

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
}

// finderEntry is one cached result set plus the footprint it covered.
type finderEntry struct {
	mems     []memento.Memento // committed rows; treated as immutable
	fp       memento.Footprint
	storedAt time.Time
}

// Fill is one finder's store call and the install of its reply, from
// StartFill until Put or Drop ends it. It collects every write the cache
// is told of in that window and is spoiled if the cache is cleared.
type Fill struct {
	writes  []memento.WriteDesc
	spoiled bool
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
		fills:   make(map[*Fill]struct{}),
	}
}

// Get returns the cached result set for a query, if present: the
// committed rows (read-only — callers clone before mutating) and when
// they were known current. An enabled cache counts the lookup as a hit
// or a miss.
func (c *FinderCache) Get(q memento.Query) ([]memento.Memento, time.Time, bool) {
	if !c.enabled {
		return nil, time.Time{}, false
	}
	ck := q.CacheKey()
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

// StartFill opens a fill before a finder's store call is sent. A
// disabled cache opens none and returns nil.
func (c *FinderCache) StartFill() *Fill {
	if !c.enabled {
		return nil
	}
	f := &Fill{}
	c.mu.Lock()
	c.fills[f] = struct{}{}
	c.mu.Unlock()
	return f
}

// Put ends fill f and stores its reply, a committed result set, with
// the footprint it covered — the query and the keys of its rows — and
// at, when the rows were known current. It stores nothing if the cache
// was cleared since StartFill or a write it was told of since then
// overlaps that footprint. The rows are retained as given and must not
// be mutated afterwards (the cache runtime only ever hands out clones
// of them).
func (c *FinderCache) Put(f *Fill, q memento.Query, mems []memento.Memento, at time.Time) {
	if !c.enabled {
		return
	}
	fp := memento.QueryFootprint(q, mems)
	ck := q.CacheKey()
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.fills, f)
	if f.spoiled || fp.Overlaps(f.writes) {
		return
	}
	c.entries[ck] = finderEntry{mems: mems, fp: fp, storedAt: at}
}

// Drop ends fill f without storing anything: its store call failed.
func (c *FinderCache) Drop(f *Fill) {
	if !c.enabled {
		return
	}
	c.mu.Lock()
	delete(c.fills, f)
	c.mu.Unlock()
}

// Invalidate drops every entry whose footprint overlaps the committed
// write set, hands the writes to every open fill, and returns how many
// entries were dropped. A blind write drops every entry reading its
// table.
func (c *FinderCache) Invalidate(writes []memento.WriteDesc) int {
	if !c.enabled || len(writes) == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for f := range c.fills {
		f.writes = append(f.writes, writes...)
	}
	n := 0
	for ck, e := range c.entries {
		if e.fp.Overlaps(writes) {
			delete(c.entries, ck)
			n++
		}
	}
	if n > 0 {
		c.invalidations.Add(uint64(n))
		obsFinderInvalidations.Add(uint64(n))
	}
	return n
}

// Clear empties the cache and spoils every open fill (stream loss,
// resubscription, shutdown).
func (c *FinderCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for f := range c.fills {
		f.spoiled = true
	}
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
