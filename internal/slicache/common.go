package slicache

import (
	"sync"
	"sync/atomic"
	"time"

	"edgeejb/internal/memento"
)

// CommonStore is the shared (inter-transaction) transient datastore of
// memento instances. It is a cache of committed persistent state; it
// never holds uncommitted data. It is unbounded: entries leave it only
// when an invalidation, a conflict or a lost invalidation stream says
// they may be stale. An entry is kept packed (memento.Row) against its
// table's column list, so the field names live once per table, not
// once per entry, and every read builds a fresh memento.
type CommonStore struct {
	mu      sync.RWMutex
	entries map[memento.Key]cachedEntry
	// cols holds each table's column list. A list only grows, only under
	// mu held for writing, and outlives a Clear.
	cols  map[string]*memento.Columns
	bytes int64 // estimated resident size of all entries
	now   func() time.Time

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
}

// cachedEntry is one cached memento's version and cells, the time its
// value was stored (conflict forensics report it as the losing read's
// age), and its estimated size (for occupancy accounting).
type cachedEntry struct {
	version  uint64
	cells    memento.Row
	storedAt time.Time
	size     int64
}

// Per-entry overheads mementoSize counts: the entries map's slot (a
// 32-byte memento.Key and a 64-byte cachedEntry) and one packed cell.
const (
	entrySlotBytes = 96
	cellBytes      = 32
)

// mementoSize estimates a cached memento's resident footprint in its
// packed form: its map slot, the key's strings, one cell per field and
// each string payload. Field names are the column lists', shared by
// the table. It is an occupancy signal (CommonStoreStats.Bytes), not an
// allocator measurement.
func mementoSize(m memento.Memento) int64 {
	size := entrySlotBytes + int64(len(m.Key.Table)+len(m.Key.ID))
	for _, v := range m.Fields {
		size += cellBytes
		if v.Kind == memento.KindString {
			size += int64(len(v.Str))
		}
	}
	return size
}

// CommonStoreStats is a snapshot of cache counters.
type CommonStoreStats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
	Entries       int
	Bytes         int64
}

// NewCommonStore returns an empty common store.
func NewCommonStore() *CommonStore {
	return &CommonStore{
		entries: make(map[memento.Key]cachedEntry),
		cols:    make(map[string]*memento.Columns),
		now:     time.Now,
	}
}

// SetClock overrides the timestamp source; tests use it to control
// entry ages deterministically.
func (c *CommonStore) SetClock(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}

// Get returns a copy of the cached memento for key, if present.
func (c *CommonStore) Get(key memento.Key) (memento.Memento, bool) {
	m, _, ok := c.GetWithTime(key)
	return m, ok
}

// GetWithTime is Get plus the instant the cached value was stored, which
// conflict forensics report as the losing read's age.
func (c *CommonStore) GetWithTime(key memento.Key) (memento.Memento, time.Time, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		obsMissesBy.With(key.Table).Inc()
		return memento.Memento{}, time.Time{}, false
	}
	c.hits.Add(1)
	obsHitsBy.With(key.Table).Inc()
	m := memento.Memento{Key: key, Version: e.version, Fields: c.cols[key.Table].Unpack(e.cells)}
	return m, e.storedAt, true
}

// Contains reports whether key is cached. Unlike Get it counts no hit
// or miss and unpacks nothing: a create asks only whether the row is
// known to exist.
func (c *CommonStore) Contains(key memento.Key) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.entries[key]
	return ok
}

// Put caches a committed memento: a miss fetch's or finder's row, or
// an own commit's after-image. Older versions never overwrite newer
// ones, so racing installs are safe in any order.
func (c *CommonStore) Put(m memento.Memento) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[m.Key]; ok {
		if e.version >= m.Version {
			return
		}
		c.bytes -= e.size
	}
	cols := c.cols[m.Key.Table]
	if cols == nil {
		cols = new(memento.Columns)
		c.cols[m.Key.Table] = cols
	}
	e := cachedEntry{version: m.Version, cells: cols.Pack(m.Fields), storedAt: c.now(), size: mementoSize(m)}
	c.entries[m.Key] = e
	c.bytes += e.size
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
		if e, ok := c.entries[k]; ok {
			delete(c.entries, k)
			c.bytes -= e.size
			c.invalidations.Add(1)
			evicted++
		}
	}
	return evicted
}

// Clear evicts every entry. The runtime clears the cache when its
// invalidation stream drops: notices may be missed, so every entry is
// suspect.
func (c *CommonStore) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidations.Add(uint64(len(c.entries)))
	c.entries = make(map[memento.Key]cachedEntry)
	c.bytes = 0
}

// Len returns the number of cached entries.
func (c *CommonStore) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
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
		Entries:       entries,
		Bytes:         bytes,
	}
}
