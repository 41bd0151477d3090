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
// lock evict takes to hand writes to the fills, so a write no longer
// handed to f is heard, and its eviction made, only after install has
// put what it evicts.
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

// evict is the one place a write the edge hears goes: another edge's
// notice, the keys of a transaction that lost validation, or a write of
// this edge's own commit whose new version the reply did not carry. It
// hands the writes to every open fill, and only then drops what they
// name from the common store and every cached finder result they
// overlap, so a fill either hears a write or has installed its reply
// before the write's eviction. It returns how many cached rows it
// dropped.
func (m *Manager) evict(writes []memento.WriteDesc) int {
	if len(writes) == 0 {
		return 0
	}
	m.fillMu.Lock()
	m.hearLocked(writes)
	m.fillMu.Unlock()
	evicted := 0
	for _, w := range writes {
		evicted += m.common.Invalidate(w.Key)
	}
	m.finders.Invalidate(writes)
	return evicted
}

// hearLocked hands writes to every open fill, whose reply may predate
// them. m.fillMu is held: by evict, or by an own commit's install,
// which hands its installed writes on itself.
func (m *Manager) hearLocked(writes []memento.WriteDesc) {
	for f := range m.fills {
		f.writes = append(f.writes, writes...)
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
