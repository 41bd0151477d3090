package sqlstore

import "edgeejb/internal/memento"

// cell is one field of a stored row: its column in the table's column
// list, and its value.
type cell struct {
	col int
	val memento.Value
}

// row is one committed row: the number of the commit that wrote it and
// its cells, in no particular order. A row written with a nil field map
// has nil cells; one written with an empty map has empty, non-nil
// cells.
type row struct {
	version uint64
	cells   []cell
}

// value returns the row's value in column col, if it has one.
func (r row) value(col int) (memento.Value, bool) {
	for _, c := range r.cells {
		if c.col == col {
			return c.val, true
		}
	}
	return memento.Value{}, false
}

// matches reports whether the row satisfies every predicate of where,
// whose fields are in columns cols (see table.columns).
func (r row) matches(where []memento.Predicate, cols []int) bool {
	for i, p := range where {
		if v, ok := r.value(cols[i]); !ok || !v.Equal(p.Value) {
			return false
		}
	}
	return true
}

type table struct {
	rows map[string]row
	// names is the column list: column i is field names[i]. It only
	// grows, and colOf is its inverse.
	names   []string
	colOf   map[string]int
	indexes map[string]*index
}

func newTable() *table {
	return &table{
		rows:    make(map[string]row),
		colOf:   make(map[string]int),
		indexes: make(map[string]*index),
	}
}

// column returns field's column, giving a field the table has not seen
// the next one. Called with s.mu held for writing, or on a table no one
// else can see yet.
func (t *table) column(field string) int {
	col, ok := t.colOf[field]
	if !ok {
		col = len(t.names)
		t.names = append(t.names, field)
		t.colOf[field] = col
	}
	return col
}

// newRow builds a row from a field map, which it does not keep. Called
// as column is.
func (t *table) newRow(version uint64, f memento.Fields) row {
	r := row{version: version}
	if f != nil {
		r.cells = make([]cell, 0, len(f))
		for name, v := range f {
			r.cells = append(r.cells, cell{col: t.column(name), val: v})
		}
	}
	return r
}

// memento builds row id of the table called name as a memento with a
// fresh field map, which the caller owns.
func (t *table) memento(name, id string, r row) memento.Memento {
	m := memento.Memento{Key: memento.Key{Table: name, ID: id}, Version: r.version}
	if r.cells != nil {
		m.Fields = make(memento.Fields, len(r.cells))
		for _, c := range r.cells {
			m.Fields[t.names[c.col]] = c.val
		}
	}
	return m
}

// columns appends to buf the column of each predicate's field. It
// reports false if some field has no column, when no row can match.
func (t *table) columns(where []memento.Predicate, buf []int) ([]int, bool) {
	for _, p := range where {
		col, ok := t.colOf[p.Field]
		if !ok {
			return nil, false
		}
		buf = append(buf, col)
	}
	return buf, true
}

// install puts r in as row id and moves the row's index entries from
// its previous image, if any, to r. Called with s.mu held for writing.
func (t *table) install(id string, r row) {
	prev, hadPrev := t.rows[id]
	t.rows[id] = r
	for _, ix := range t.indexes {
		if hadPrev {
			ix.remove(id, prev)
		}
		ix.insert(id, r)
	}
}

// drop removes row id and its index entries, if it exists. Called with
// s.mu held for writing.
func (t *table) drop(id string) {
	prev, ok := t.rows[id]
	if !ok {
		return
	}
	delete(t.rows, id)
	for _, ix := range t.indexes {
		ix.remove(id, prev)
	}
}
