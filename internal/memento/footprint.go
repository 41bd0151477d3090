package memento

import "sort"

// WriteDesc describes one committed mutation richly enough for
// footprint-overlap tests: the key, the cells the write set, and
// whether the write removed the row. A row that leaves a cached result
// set is one of that result's keys, and a row that enters it matches
// in the cells its write changed, so no before-image is needed. After
// may be partial: the store's notice of an update carries only the
// cells that differ from the row it replaced (an empty map for an
// update that changed nothing), and a create's is its whole image. A
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
// or a predicate read's result set may have gained the row (see
// mayEnter). A row the result set loses is one of its keys. Blind
// writes conservatively overlap every predicate on the same table.
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
		if w.After != nil && q.mayEnter(w.After) {
			return true
		}
	}
	return false
}

// mayEnter reports whether a row whose write set the cells in after
// may have entered q's result set; after may be partial (WriteDesc).
// A row not in the result that enters it had a predicate field change,
// so a query with predicates none of whose fields after holds was not
// entered. Otherwise every predicate field after holds must match, and
// one it lacks counts as matching: the cell kept its value, which
// after does not say. A query with no predicates holds every row, so
// any image may enter it.
func (q Query) mayEnter(after Fields) bool {
	named := len(q.Where) == 0
	for _, p := range q.Where {
		v, ok := after[p.Field]
		if !ok {
			continue
		}
		if !v.Equal(p.Value) {
			return false
		}
		named = true
	}
	return named
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
// caches, q.Normalize().String(). Two queries with the same cache key
// return the same result set against the same store state.
func (q Query) CacheKey() string { return q.Normalize().String() }
