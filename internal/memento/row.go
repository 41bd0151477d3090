package memento

import "math"

// Packed rows. A field map costs a Go map per memento and a 48-byte
// Value per field, four payloads of which one is meaningful. Memory at
// rest — the database's rows, the edge's common store — instead keeps
// each row as cells against a per-table column list: a cell is 32
// bytes and holds exactly what the wire carries for a value, its kind
// and the one payload that kind selects, with a float kept by its bits.
// The names live once, in the column list.

// Columns is one table's column list: column i holds field names[i].
// It only grows, so a row packed against it stays readable however
// many fields later rows add. It is not safe for concurrent use: its
// owner grows it (Column, Pack) under a write lock and reads it
// (Unpack, Where) under at least a read lock.
type Columns struct {
	names []string
	colOf map[string]uint32
}

// Column returns field's column, giving a field the list has not seen
// the next one.
func (c *Columns) Column(field string) uint32 {
	col, ok := c.colOf[field]
	if !ok {
		if c.colOf == nil {
			c.colOf = make(map[string]uint32)
		}
		col = uint32(len(c.names))
		c.names = append(c.names, field)
		c.colOf[field] = col
	}
	return col
}

// Pack returns f as a row of cells, growing the list with any field it
// has not seen. It keeps no reference to f. A nil map packs to a nil
// row and an empty one to an empty, non-nil row, so both round-trip.
func (c *Columns) Pack(f Fields) Row {
	if f == nil {
		return nil
	}
	r := make(Row, 0, len(f))
	for name, v := range f {
		r = append(r, packCell(c.Column(name), v))
	}
	return r
}

// Unpack returns r as a fresh field map, which the caller owns.
func (c *Columns) Unpack(r Row) Fields {
	if r == nil {
		return nil
	}
	f := make(Fields, len(r))
	for _, cell := range r {
		f[c.names[cell.col]] = cell.value()
	}
	return f
}

// Changed returns the fields of next, a row that replaces prev, whose
// cells prev does not hold identically (floats by their bits): f,
// next's own image, when every cell changed, else a fresh map of the
// changed cells, empty but never nil when none did. A field prev holds
// and next lacks is not named: dropping a field only takes a row out of
// the queries on it, never into one.
func (c *Columns) Changed(prev, next Row, f Fields) Fields {
	same := 0
	for _, cell := range next {
		if prev.holds(cell) {
			same++
		}
	}
	if same == 0 && f != nil {
		return f
	}
	out := make(Fields, len(next)-same)
	for _, cell := range next {
		if !prev.holds(cell) {
			out[c.names[cell.col]] = cell.value()
		}
	}
	return out
}

// Where appends to buf the column of each predicate's field, for
// Row.Matches. It reports false if some field has no column, when no
// row can match.
func (c *Columns) Where(where []Predicate, buf []uint32) ([]uint32, bool) {
	for _, p := range where {
		col, ok := c.colOf[p.Field]
		if !ok {
			return nil, false
		}
		buf = append(buf, col)
	}
	return buf, true
}

// Cell is one packed field: its column and its value's kind and
// payload. A string is kept in str; an int, a float's bits or a bool
// (as 0 or 1) in bits.
type Cell struct {
	str  string
	bits uint64
	col  uint32
	kind uint8
}

func packCell(col uint32, v Value) Cell {
	c := Cell{col: col, kind: uint8(v.Kind)}
	switch v.Kind {
	case KindString:
		c.str = v.Str
	case KindInt:
		c.bits = uint64(v.Int)
	case KindFloat:
		c.bits = math.Float64bits(v.F)
	case KindBool:
		if v.Bool {
			c.bits = 1
		}
	}
	return c
}

// identical reports whether a and b are the same cell: the same kind
// and the same payload that kind selects, floats by their bits.
func identical(a, b Value) bool { return packCell(0, a) == packCell(0, b) }

// value returns the cell's value.
func (c Cell) value() Value {
	v := Value{Kind: Kind(c.kind)}
	switch v.Kind {
	case KindString:
		v.Str = c.str
	case KindInt:
		v.Int = int64(c.bits)
	case KindFloat:
		v.F = math.Float64frombits(c.bits)
	case KindBool:
		v.Bool = c.bits != 0
	}
	return v
}

// equal reports whether the cell holds a value Equal to v, without
// building a Value: it compares only the payload v's kind selects, and
// floats as float64, so 0 equals -0 and a NaN equals nothing.
func (c Cell) equal(v Value) bool {
	if Kind(c.kind) != v.Kind {
		return false
	}
	switch v.Kind {
	case KindString:
		return c.str == v.Str
	case KindInt:
		return int64(c.bits) == v.Int
	case KindFloat:
		return math.Float64frombits(c.bits) == v.F
	case KindBool:
		return (c.bits != 0) == v.Bool
	}
	return true
}

// Row is a packed field map: one cell per field, in no particular
// order, against its table's Columns.
type Row []Cell

// holds reports whether the row has cell, column and value alike.
func (r Row) holds(cell Cell) bool {
	for _, c := range r {
		if c.col == cell.col {
			return c == cell
		}
	}
	return false
}

// Value returns the row's value in column col, if it has one.
func (r Row) Value(col uint32) (Value, bool) {
	for _, c := range r {
		if c.col == col {
			return c.value(), true
		}
	}
	return Value{}, false
}

// Matches reports whether the row satisfies every predicate of where,
// whose fields are in columns cols (see Columns.Where). A missing field
// never matches.
func (r Row) Matches(where []Predicate, cols []uint32) bool {
next:
	for i, p := range where {
		for _, c := range r {
			if c.col == cols[i] {
				if !c.equal(p.Value) {
					return false
				}
				continue next
			}
		}
		return false
	}
	return true
}
