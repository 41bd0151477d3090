package memento

import "sort"

// WriteDesc describes one committed mutation richly enough for
// footprint-overlap tests: the key, the row's field state after the
// write, and whether the write removed the row. A row that leaves a
// cached result set is one of that result's keys, and a row that enters
// it matches in its after-image, so no before-image is needed. A
// WriteDesc with neither an after-image nor Removed is blind: a key
// evicted after a lost validation, or cut to its key for a keys-only
// subscriber, whose write is unknown, so overlap tests treat it
// conservatively.
type WriteDesc struct {
	Key     Key
	After   Fields
	Removed bool
}

// Blind reports whether the write carries only its key, in which case
// only its key and table are known.
func (w WriteDesc) Blind() bool { return w.After == nil && !w.Removed }

// Footprint is what a cached finder result observed: the predicate
// query whose result set it holds and the keys of the rows in it. The
// finder cache builds one per entry (QueryFootprint) and evicts the
// entry when a committed write overlaps it.
type Footprint struct {
	// Keys are the rows the result set holds.
	Keys []Key
	// Queries are predicate reads: each query's entire result set was
	// observed, so any committed write whose after-image matches the
	// predicate may change it.
	Queries []Query
}

// QueryFootprint builds the footprint a finder covered: the normalized
// query descriptor plus the keys of the rows it returned (their
// versions are proven individually at commit; the descriptor guards the
// result-set membership).
func QueryFootprint(q Query, results []Memento) Footprint {
	fp := Footprint{Queries: []Query{q.Normalize()}}
	for _, m := range results {
		fp.Keys = append(fp.Keys, m.Key)
	}
	return fp
}

// CoversKey reports whether the key is one of the footprint's rows.
func (f Footprint) CoversKey(k Key) bool {
	for _, have := range f.Keys {
		if have == k {
			return true
		}
	}
	return false
}

// OverlapsWrite reports whether a committed write could have changed
// anything this footprint observed: the written key is one of its rows,
// or a predicate read's result set may have gained the row. A row the
// result set loses is one of its keys. Blind writes conservatively
// overlap every predicate on the same table.
func (f Footprint) OverlapsWrite(w WriteDesc) bool {
	if f.CoversKey(w.Key) {
		return true
	}
	for _, q := range f.Queries {
		if q.Table != w.Key.Table {
			continue
		}
		if w.Blind() {
			return true
		}
		if w.After != nil && q.MatchesFields(w.After) {
			return true
		}
	}
	return false
}

// Overlaps reports whether any write in a committed set overlaps the
// footprint.
func (f Footprint) Overlaps(writes []WriteDesc) bool {
	for _, w := range writes {
		if f.OverlapsWrite(w) {
			return true
		}
	}
	return false
}

// MatchesFields reports whether a field map satisfies every predicate
// of the query (table membership is the caller's concern). It is the
// overlap test's half of Matches: write descriptors carry bare field
// images, not whole mementos.
func (q Query) MatchesFields(f Fields) bool {
	for _, p := range q.Where {
		if !p.Matches(f) {
			return false
		}
	}
	return true
}

// Normalize returns a canonical form of the query: predicates sorted by
// field, then value, so that logically identical finders render
// identically. A table plus its equalities is the whole of a finder, so
// it is the whole of its cache key.
func (q Query) Normalize() Query {
	if len(q.Where) < 2 {
		return q
	}
	where := append([]Predicate(nil), q.Where...)
	sort.SliceStable(where, func(i, j int) bool {
		if where[i].Field != where[j].Field {
			return where[i].Field < where[j].Field
		}
		return where[i].Value.Compare(where[j].Value) < 0
	})
	q.Where = where
	return q
}

// CacheKey renders the canonical query string used to key finder-result
// caches. Two queries with the same cache key return the same result
// set against the same store state.
func (q Query) CacheKey() string { return q.Normalize().String() }
