package slicache

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"edgeejb/internal/memento"
	"edgeejb/internal/obs"
)

// CommonStore is the shared (inter-transaction) transient datastore of
// memento instances. It is a cache of committed persistent state; it
// never holds uncommitted data. When a capacity is configured, entries
// are evicted in least-recently-used order — edge caches are
// space-constrained, which is the problem the paper's related work on
// edge data caches (§1.4, Amiri et al.) addresses.
type CommonStore struct {
	mu       sync.RWMutex
	entries  map[memento.Key]*list.Element
	lru      *list.List // front = most recently used
	bytes    int64      // estimated resident size of all entries
	capacity int        // 0 = unlimited
	now      func() time.Time

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
	refreshes     atomic.Uint64
	evictions     atomic.Uint64
}

// lruEntry is one cached memento plus its key for back-eviction, the
// time its value was stored (degraded reads are served within a bound
// on it), and its estimated size (for occupancy accounting).
type lruEntry struct {
	key      memento.Key
	mem      memento.Memento
	storedAt time.Time
	size     int64
}

// mementoSize estimates a cached memento's resident footprint: string
// payloads plus a fixed per-field and per-entry overhead. It is an
// occupancy signal (CommonStoreStats.Bytes), not an allocator
// measurement.
func mementoSize(m memento.Memento) int64 {
	size := int64(64 + len(m.Key.Table) + len(m.Key.ID))
	for name, v := range m.Fields {
		size += int64(48 + len(name) + len(v.Str))
	}
	return size
}

// CommonStoreStats is a snapshot of cache counters.
type CommonStoreStats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
	Refreshes     uint64
	Evictions     uint64
	Entries       int
	Bytes         int64
}

// NewCommonStore returns an empty, unbounded common store.
func NewCommonStore() *CommonStore {
	return &CommonStore{
		entries: make(map[memento.Key]*list.Element),
		lru:     list.New(),
		now:     time.Now,
	}
}

// SetCapacity bounds the number of cached entries; 0 means unlimited.
// Shrinking below the current size evicts LRU entries immediately.
func (c *CommonStore) SetCapacity(capacity int) {
	if capacity < 0 {
		capacity = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = capacity
	c.evictOverflowLocked()
}

// Capacity returns the configured bound (0 = unlimited).
func (c *CommonStore) Capacity() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.capacity
}

// SetClock overrides the timestamp source; tests use it to control
// entry ages deterministically.
func (c *CommonStore) SetClock(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}

// Get returns a copy of the cached memento for key, if present, marking
// it most recently used.
func (c *CommonStore) Get(key memento.Key) (memento.Memento, bool) {
	m, _, ok := c.GetWithTime(key)
	return m, ok
}

// GetWithTime is Get plus the instant the cached value was stored, which
// degraded reads compare against their bound and conflict forensics
// report as the losing read's age.
func (c *CommonStore) GetWithTime(key memento.Key) (memento.Memento, time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		obsMissesBy.With(key.Table).Inc()
		return memento.Memento{}, time.Time{}, false
	}
	c.lru.MoveToFront(el)
	c.hits.Add(1)
	obsHitsBy.With(key.Table).Inc()
	entry := el.Value.(*lruEntry)
	return entry.mem.Clone(), entry.storedAt, true
}

// Put caches a committed memento. Older versions never overwrite newer
// ones, so racing fills and refreshes are safe in any order.
func (c *CommonStore) Put(m memento.Memento) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[m.Key]; ok {
		entry := el.Value.(*lruEntry)
		if entry.mem.Version >= m.Version {
			c.lru.MoveToFront(el)
			return
		}
		entry.mem = m.Clone()
		entry.storedAt = c.now()
		size := mementoSize(entry.mem)
		c.bytes += size - entry.size
		entry.size = size
		c.lru.MoveToFront(el)
		return
	}
	entry := &lruEntry{key: m.Key, mem: m.Clone(), storedAt: c.now()}
	entry.size = mementoSize(entry.mem)
	c.entries[m.Key] = c.lru.PushFront(entry)
	c.bytes += entry.size
	c.evictOverflowLocked()
}

// Refresh is Put plus accounting: the runtime calls it after its own
// successful commits to keep entries warm instead of waiting for an
// invalidation round trip.
func (c *CommonStore) Refresh(m memento.Memento) {
	c.refreshes.Add(1)
	c.Put(m)
}

// Invalidate evicts the given keys (on server update notices, conflict
// aborts, and removals), returning how many were actually cached — the
// number of potentially stale serves the call prevented.
func (c *CommonStore) Invalidate(keys ...memento.Key) int {
	if len(keys) == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	evicted := 0
	for _, k := range keys {
		if el, ok := c.entries[k]; ok {
			entry := el.Value.(*lruEntry)
			c.lru.Remove(el)
			delete(c.entries, k)
			c.bytes -= entry.size
			c.invalidations.Add(1)
			evicted++
		}
	}
	return evicted
}

// Clear evicts every entry. The runtime clears the cache after the
// invalidation stream is interrupted and re-established: notices may
// have been missed, so every entry is suspect.
func (c *CommonStore) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidations.Add(uint64(len(c.entries)))
	c.entries = make(map[memento.Key]*list.Element)
	c.lru.Init()
	c.bytes = 0
}

// Len returns the number of cached entries.
func (c *CommonStore) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Bytes returns the estimated resident size of the cached entries.
func (c *CommonStore) Bytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bytes
}

// Stats returns a snapshot of the cache counters.
func (c *CommonStore) Stats() CommonStoreStats {
	c.mu.RLock()
	entries, bytes := len(c.entries), c.bytes
	c.mu.RUnlock()
	return CommonStoreStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
		Refreshes:     c.refreshes.Load(),
		Evictions:     c.evictions.Load(),
		Entries:       entries,
		Bytes:         bytes,
	}
}

// evictOverflowLocked drops LRU entries until within capacity. Called
// with c.mu held.
func (c *CommonStore) evictOverflowLocked() {
	if c.capacity <= 0 {
		return
	}
	for len(c.entries) > c.capacity {
		back := c.lru.Back()
		if back == nil {
			return
		}
		entry := back.Value.(*lruEntry)
		c.lru.Remove(back)
		delete(c.entries, entry.key)
		c.bytes -= entry.size
		c.evictions.Add(1)
		obs.DefaultEvents.Emit(obs.Event{
			Type: obs.EventEvict,
			Bean: entry.key.Table,
			Key:  entry.key.String(),
			Age:  c.now().Sub(entry.storedAt),
		})
	}
}
