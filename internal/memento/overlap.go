package memento

// WriteDesc describes one committed mutation richly enough for overlap
// tests: the key, the cells the write set, and whether the write
// removed the row. A row that leaves a cached result set is one of that
// result's rows, and a row that enters it matches in the cells its
// write changed, so no before-image is needed. After may be partial:
// the store's notice of an update carries only the cells that differ
// from the row it replaced (an empty map for an update that changed
// nothing), and a create's is its whole image. A WriteDesc with neither
// an after-image nor Removed is blind: a key evicted after a lost
// validation, whose write is unknown, so overlap tests treat it
// conservatively.
type WriteDesc struct {
	Key     Key
	After   Fields
	Removed bool
}

// Blind reports whether the write carries only its key, in which case
// only its key and table are known.
func (w WriteDesc) Blind() bool { return w.After == nil && !w.Removed }

// Overlaps reports whether any committed write could have changed the
// result set rows that q returned, so that a cache holding the pair
// must drop or refresh it. A write overlaps when it writes one of rows,
// or when it lands on q's table and is blind or carries cells that may
// enter q (see mayEnter). A row the result set loses is one of rows, so
// a removal overlaps only through its key.
func (q Query) Overlaps(rows []Memento, writes []WriteDesc) bool {
	for _, w := range writes {
		if w.Key.Table != q.Table {
			continue
		}
		if w.Blind() || (w.After != nil && q.mayEnter(w.After)) {
			return true
		}
		for _, m := range rows {
			if m.Key == w.Key {
				return true
			}
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
