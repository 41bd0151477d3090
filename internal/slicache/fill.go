package slicache

import "edgeejb/internal/memento"

// Fill is one store call and the install of its reply, from startFill
// until endFill: a miss fetch, a finder's query, or this edge's own
// commit. It collects every write the edge hears in that window —
// another edge's notice, the keys of a transaction that lost
// validation, another of this edge's own commits — and is spoiled if
// the edge's caches are cleared. The store may have answered before
// any of those writes landed, so the install skips what they touch:
// the common store takes no row a heard write names (Fill.names), and
// the finder cache no result one overlaps (FinderCache.put and
// FinderCache.Commit). A notice evicts only what is cached, and a row
// still in flight is not, so without the skip an older row would stay
// until some later conflict evicted it.
type Fill struct {
	writes  []memento.WriteDesc
	spoiled bool
}

// names reports whether a write f heard names key, or f was spoiled:
// f's reply may hold an older row for key than the store does.
func (f *Fill) names(key memento.Key) bool {
	if f.spoiled {
		return true
	}
	for _, w := range f.writes {
		if w.Key == key {
			return true
		}
	}
	return false
}

// startFill opens a fill before a store call is sent.
func (m *Manager) startFill() *Fill {
	f := &Fill{}
	m.fillMu.Lock()
	m.fills[f] = struct{}{}
	m.fillMu.Unlock()
	return f
}

// endFill ends fill f, if not nil, and then runs install, if not nil,
// which puts f's reply where the edge caches it. Both run under the
// lock hear takes, so a write no longer handed to f is heard, and its
// eviction made, only after install has put what it evicts.
func (m *Manager) endFill(f *Fill, install func()) {
	if f == nil {
		return
	}
	m.fillMu.Lock()
	defer m.fillMu.Unlock()
	delete(m.fills, f)
	if install != nil {
		install()
	}
}

// hear hands writes to every open fill. A caller evicts what the
// writes name only after it, so a fill either hears a write or has
// installed its reply before the write's eviction.
func (m *Manager) hear(writes []memento.WriteDesc) {
	if len(writes) == 0 {
		return
	}
	m.fillMu.Lock()
	defer m.fillMu.Unlock()
	for f := range m.fills {
		f.writes = append(f.writes, writes...)
	}
}

// hearOwn hands this edge's own commit, its written rows, removed keys
// and writes of unknown version, to every fill still open, whose reply
// may predate it. It runs in a commit's install, under m.fillMu, and
// builds the descriptors only when a fill is open to hear them.
func (m *Manager) hearOwn(written []memento.Memento, removed []memento.Key, unknown []memento.WriteDesc) {
	if len(m.fills) == 0 {
		return
	}
	own := append(ownWrites(written, removed, len(unknown)), unknown...)
	for f := range m.fills {
		f.writes = append(f.writes, own...)
	}
}

// clear empties both caches after the edge may have missed notices,
// spoiling every open fill first, so that no reply in flight is
// installed afterwards.
func (m *Manager) clear() {
	m.fillMu.Lock()
	for f := range m.fills {
		f.spoiled = true
	}
	m.fillMu.Unlock()
	m.common.Clear()
	m.finders.Clear()
}
