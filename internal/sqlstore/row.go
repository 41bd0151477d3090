package sqlstore

import "edgeejb/internal/memento"

// row is one committed row: the commit that wrote it and its cells,
// packed against its table's column list. A row written with a nil
// field map has nil cells; one written with an empty map has empty,
// non-nil cells.
type row struct {
	by    *commit
	cells memento.Row
}

// commit is what the rows one commit wrote keep of it, shared among
// them: its number, which is each row's version, and the trace ID it
// carried, which a conflict on one of the rows names as the winner's
// (zero when untraced, and for seeded and restored rows).
type commit struct {
	seq, trace uint64
}

type table struct {
	rows map[string]row
	// cols is the column list, which only grows: under s.mu held for
	// writing, or on a table no one else can see yet.
	cols    memento.Columns
	indexes map[string]*index
}

func newTable() *table {
	return &table{
		rows:    make(map[string]row),
		indexes: make(map[string]*index),
	}
}

// newRow builds a row from a field map, which it does not keep. Called
// with s.mu held for writing, or on a table no one else can see yet.
func (t *table) newRow(by *commit, f memento.Fields) row {
	return row{by: by, cells: t.cols.Pack(f)}
}

// memento builds row id of the table called name as a memento with a
// fresh field map, which the caller owns.
func (t *table) memento(name, id string, r row) memento.Memento {
	return memento.Memento{Key: memento.Key{Table: name, ID: id}, Version: r.by.seq, Fields: t.cols.Unpack(r.cells)}
}

// install puts r in as row id, moves the row's index entries from its
// previous image, if any, to r, and returns that image. Called with
// s.mu held for writing.
func (t *table) install(id string, r row) (prev row, hadPrev bool) {
	prev, hadPrev = t.rows[id]
	t.rows[id] = r
	for _, ix := range t.indexes {
		if hadPrev {
			ix.remove(id, prev)
		}
		ix.insert(id, r)
	}
	return prev, hadPrev
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
