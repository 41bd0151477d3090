package sqlstore

import (
	"fmt"
	"slices"

	"edgeejb/internal/memento"
)

// Secondary indexes. A single-field index answers equality probes,
// the access path the Trade application's custom finders use (holdings
// by accountID). When a query has an indexed predicate, scanTable
// probes that index instead of scanning the table, and re-checks every
// predicate on each candidate either way, so indexes are purely an
// optimization and never change results.
//
// Indexes are maintained synchronously under the store mutex at commit
// time (applyWrites) and at Seed, so they are always consistent with
// committed state. Uncommitted (buffered) writes are invisible to
// indexes, exactly as they are invisible to scans.

// index is a secondary index over one field of one table. It is keyed
// on the stored memento.Value, and a Go map key matches by ==, which is
// exactly Value.Equal: a probe of a value's Stored form finds the rows
// a scan's Row.Matches would, Float(0) and Float(-0) are one key, and
// Kind is part of the key, so Int(1) and Float(1) never collide.
type index struct {
	// col is the indexed field's column in its table (see row.go).
	col uint32
	// byValue maps a field value to the IDs, in no order, of the rows
	// whose committed image holds that value. A value's rows are few
	// (the Trade application indexes holdings by account), so a slice,
	// searched to remove one, costs a fraction of a set's memory.
	byValue map[memento.Value][]string
}

func newIndex(col uint32) *index {
	return &index{col: col, byValue: make(map[memento.Value][]string)}
}

func (ix *index) insert(id string, r row) {
	v, ok := r.cells.Value(ix.col)
	// Rows without the field are unindexed, and so are NaN values: a NaN
	// equals nothing, so no probe or scan can select it, and as a map key
	// it could never be looked up again to remove.
	if !ok || !v.Equal(v) {
		return
	}
	ix.byValue[v] = append(ix.byValue[v], id)
}

func (ix *index) remove(id string, r row) {
	v, ok := r.cells.Value(ix.col)
	if !ok {
		return
	}
	ids := ix.byValue[v]
	i := slices.Index(ids, id)
	switch {
	case i < 0:
	case len(ids) == 1:
		delete(ix.byValue, v)
	default:
		ix.byValue[v] = slices.Delete(ids, i, i+1)
	}
}

// CreateIndex builds a hash index on table.field from the current
// committed rows and maintains it across future commits. Creating the
// same index twice is a no-op; the table need not exist yet.
func (s *Store) CreateIndex(tableName, field string) error {
	if tableName == "" || field == "" {
		return fmt.Errorf("sqlstore: index needs table and field")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	t := s.tables[tableName]
	if t == nil {
		t = newTable()
		s.tables[tableName] = t
	}
	if _, exists := t.indexes[field]; exists {
		return nil
	}
	ix := newIndex(t.cols.Column(field))
	for id, r := range t.rows {
		ix.insert(id, r)
	}
	t.indexes[field] = ix
	return nil
}

// Indexes lists the indexed fields of a table, for diagnostics.
func (s *Store) Indexes(tableName string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.tables[tableName]
	if t == nil {
		return nil
	}
	out := make([]string, 0, len(t.indexes))
	for f := range t.indexes {
		out = append(out, f)
	}
	return out
}

// plan returns the candidate row IDs for q from the first predicate
// whose field is indexed; ok is false when none is (full scan). Called
// with s.mu held (read). Every predicate is re-checked on the
// candidates regardless, so the planner affects cost only, never
// results.
func (t *table) plan(q memento.Query) (ids []string, ok bool) {
	for _, p := range q.Where {
		if ix, indexed := t.indexes[p.Field]; indexed {
			return ix.byValue[p.Value.Stored()], true
		}
	}
	return nil, false
}
