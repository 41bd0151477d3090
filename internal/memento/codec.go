package memento

import (
	"encoding/binary"
	"math"

	"edgeejb/internal/wire"
)

// The row encoding: the one way a Key, a Value, a Fields map and a
// Memento are written as bytes, used by the wire protocol (dbwire) and
// by the store's snapshot (sqlstore) alike. Table and field names go
// through a wire.Names table, a literal the first time and a short
// index after that (nil t: every name a literal); an ID and a string
// value are always literals. A float is its IEEE bits, so -0 and a NaN's
// payload survive, and a Fields map carries a nil/present marker, since
// WriteDesc.Blind gives nil a meaning an empty map does not have; a
// memento's marker also says whether its map is an update's changed
// cells (Memento.Delta), so that flag costs no byte. A value keeps only
// the payload its Kind selects (Value.Stored). The encoding is not
// self-describing: reader and writer build from one tree.

// AppendKey appends k: its table as a name, its ID as a literal.
func AppendKey(dst []byte, t *wire.Names, k Key) []byte {
	dst = wire.AppendName(dst, t, k.Table)
	return wire.AppendString(dst, k.ID)
}

// ReadKey reads a key written by AppendKey.
func ReadKey(r *wire.Reader) Key {
	var k Key
	k.Table = r.Name()
	k.ID = r.Str()
	return k
}

// AppendValue appends v's kind byte and the payload that kind selects;
// the zero Value is its kind byte alone.
func AppendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case KindString:
		dst = wire.AppendString(dst, v.Str)
	case KindInt:
		dst = binary.AppendVarint(dst, v.Int)
	case KindFloat:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.F))
	case KindBool:
		dst = wire.AppendBool(dst, v.Bool)
	}
	return dst
}

// ReadValue reads a value written by AppendValue.
func ReadValue(r *wire.Reader) Value {
	var v Value
	v.Kind = Kind(r.Byte())
	switch v.Kind {
	case KindString:
		v.Str = r.Str()
	case KindInt:
		v.Int = r.Varint()
	case KindFloat:
		v.F = math.Float64frombits(r.Uint64())
	case KindBool:
		v.Bool = r.Bool()
	default:
		// Kind 0 is the zero Value, which has no payload; a kind above
		// KindBool is one no writer of ours writes.
		if v.Kind > KindBool {
			r.Fail()
		}
	}
	return v
}

// The presence byte a field map opens with: nil, a whole map, or (on a
// memento only) an update's changed cells (Memento.Delta).
const (
	fieldsNil   = 0
	fieldsWhole = 1
	fieldsDelta = 2
)

// AppendFields appends a field map with an explicit nil/present marker.
func AppendFields(dst []byte, t *wire.Names, f Fields) []byte {
	return appendFields(dst, t, f, fieldsWhole)
}

// appendFields appends f, if it is not nil, under the presence byte
// present.
func appendFields(dst []byte, t *wire.Names, f Fields, present byte) []byte {
	if f == nil {
		return append(dst, fieldsNil)
	}
	dst = append(dst, present)
	dst = binary.AppendUvarint(dst, uint64(len(f)))
	for name, v := range f {
		dst = wire.AppendName(dst, t, name)
		dst = AppendValue(dst, v)
	}
	return dst
}

// ReadFields reads a field map written by AppendFields. A presence byte
// that marks changed cells fails the read: a notice's image, and every
// other map read alone, is whole.
func ReadFields(r *wire.Reader) Fields {
	f, delta := readFields(r)
	if delta {
		r.Fail()
	}
	return f
}

// readFields reads a field map and whether its presence byte marks
// changed cells; a presence byte past fieldsDelta fails the read.
func readFields(r *wire.Reader) (Fields, bool) {
	present := r.Byte()
	if present > fieldsDelta {
		r.Fail()
	}
	if present == fieldsNil || r.Failed() {
		return nil, false
	}
	n := r.Len()
	f := make(Fields, wire.Prealloc(n))
	for i := 0; i < n && !r.Failed(); i++ {
		name := r.Name()
		f[name] = ReadValue(r)
	}
	return f, present == fieldsDelta
}

// AppendMemento appends m: its key, its version and its fields, under
// a presence byte that says whether they are changed cells (Delta).
func AppendMemento(dst []byte, t *wire.Names, m Memento) []byte {
	dst = AppendKey(dst, t, m.Key)
	dst = binary.AppendUvarint(dst, m.Version)
	present := byte(fieldsWhole)
	if m.Delta {
		present = fieldsDelta
	}
	return appendFields(dst, t, m.Fields, present)
}

// ReadMemento reads a memento written by AppendMemento that must be
// whole: a row read, a create, a snapshot's row. Changed cells fail the
// read.
func ReadMemento(r *wire.Reader) Memento {
	m := ReadUpdate(r)
	if m.Delta {
		r.Fail()
	}
	return m
}

// ReadUpdate reads a memento written by AppendMemento where an update's
// changed cells may stand: a commit set's write, a checked put. Changed
// cells at version 0 fail the read, since no row they could change was
// read.
func ReadUpdate(r *wire.Reader) Memento {
	var m Memento
	m.Key = ReadKey(r)
	m.Version = r.Uvarint()
	m.Fields, m.Delta = readFields(r)
	if m.Delta && m.Version == 0 {
		r.Fail()
	}
	return m
}
