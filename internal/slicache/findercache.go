package slicache

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"edgeejb/internal/memento"
)

// FinderCache is the transactional finder-result cache: a bounded LRU
// of committed query results keyed by normalized query, the
// transactional method caching of Pfeifer & Lockemann applied to the
// paper's custom finders. Each entry carries the footprint the query
// covered, which Put works out from the query and its rows — the only
// place a footprint is built. An incoming commit notice invalidates
// every entry whose footprint overlaps the committed write set — a row
// moving into OR out of a predicate's result set both evict, which
// per-key version bumps alone cannot express. Correctness at use time
// still rests on optimistic validation: rows served from a cached result
// enter the transaction's read set and are proven at commit like any
// other read.
type FinderCache struct {
	mu       sync.Mutex
	enabled  bool // set at construction only, so read without mu
	capacity int  // 0 = unlimited
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used
	now      func() time.Time

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
	evictions     atomic.Uint64
}

// finderEntry is one cached result set plus the footprint it covered.
type finderEntry struct {
	ckey     string
	mems     []memento.Memento // committed rows; treated as immutable
	fp       memento.Footprint
	storedAt time.Time
}

// FinderCacheStats is a snapshot of finder-cache counters.
type FinderCacheStats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
	Evictions     uint64
	Entries       int
}

// DefaultFinderCapacity bounds the finder cache when no explicit
// capacity is configured. Finder entries hold whole result sets, so the
// default is deliberately smaller than typical entity-cache bounds.
const DefaultFinderCapacity = 1024

// NewFinderCache returns an empty finder cache. A disabled cache misses
// on every lookup and stores nothing — today's always-refetch behavior.
func NewFinderCache(enabled bool, capacity int) *FinderCache {
	if capacity <= 0 {
		capacity = DefaultFinderCapacity
	}
	return &FinderCache{
		enabled:  enabled,
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		now:      time.Now,
	}
}

// SetClock overrides the timestamp source (tests).
func (c *FinderCache) SetClock(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}

// Get returns the cached result set for a query, if present: the
// committed rows (read-only — callers clone before mutating) and when
// they were stored. An enabled cache counts the lookup as a hit or a
// miss.
func (c *FinderCache) Get(q memento.Query) ([]memento.Memento, time.Time, bool) {
	if !c.enabled {
		return nil, time.Time{}, false
	}
	ck := q.CacheKey()
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[ck]
	if !ok {
		c.misses.Add(1)
		obsFinderMisses.Inc()
		return nil, time.Time{}, false
	}
	c.hits.Add(1)
	obsFinderHits.Inc()
	c.lru.MoveToFront(el)
	e := el.Value.(*finderEntry)
	return e.mems, e.storedAt, true
}

// Put stores a committed result set with the footprint it covered: the
// query and the keys of its rows. The rows are retained as given and
// must not be mutated afterwards (the cache runtime only ever hands out
// clones of them).
func (c *FinderCache) Put(q memento.Query, mems []memento.Memento) {
	if !c.enabled {
		return
	}
	ck := q.CacheKey()
	c.mu.Lock()
	defer c.mu.Unlock()
	e := &finderEntry{ckey: ck, mems: mems, fp: memento.QueryFootprint(q, mems), storedAt: c.now()}
	if el, ok := c.entries[ck]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.entries[ck] = c.lru.PushFront(e)
	for c.capacity > 0 && len(c.entries) > c.capacity {
		c.removeLocked(c.lru.Back())
		c.evictions.Add(1)
	}
}

// removeLocked drops one LRU element.
func (c *FinderCache) removeLocked(el *list.Element) {
	if el == nil {
		return
	}
	e := el.Value.(*finderEntry)
	delete(c.entries, e.ckey)
	c.lru.Remove(el)
}

// Invalidate drops every entry whose footprint overlaps the committed
// write set and returns how many were dropped. A blind write drops
// every entry reading its table.
func (c *FinderCache) Invalidate(writes []memento.WriteDesc) int {
	if len(writes) == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) == 0 {
		return 0
	}
	var drop []*list.Element
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if el.Value.(*finderEntry).fp.Overlaps(writes) {
			drop = append(drop, el)
		}
	}
	for _, el := range drop {
		c.removeLocked(el)
	}
	if n := len(drop); n > 0 {
		c.invalidations.Add(uint64(n))
		obsFinderInvalidations.Add(uint64(n))
	}
	return len(drop)
}

// Clear empties the cache (stream loss, resubscription, shutdown).
func (c *FinderCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) == 0 {
		return
	}
	c.entries = make(map[string]*list.Element)
	c.lru.Init()
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
		Evictions:     c.evictions.Load(),
		Entries:       entries,
	}
}
