package memento

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Key identifies an entity instance: the table (entity type) it belongs
// to plus its primary key within that table.
type Key struct {
	Table string
	ID    string
}

// String renders the key as "table/id".
func (k Key) String() string { return k.Table + "/" + k.ID }

// Kind enumerates the dynamic type of a Value.
type Kind int

// Supported value kinds. Enums start at one so that the zero Value is
// distinguishable from a deliberately-stored value.
const (
	KindString Kind = iota + 1
	KindInt
	KindFloat
	KindBool
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return "invalid"
	}
}

// Value is a typed field value. Exactly one of the payload fields is
// meaningful, selected by Kind. Values are small and copied freely; the
// wire and the store's snapshot both write one with AppendValue
// (codec.go).
//
// A value that crosses the wire or is stored — in the database's rows or
// the edge's common store (see Row) — keeps only the payload its Kind
// selects, and reads back as its Stored form: Value{Kind: KindInt,
// Int: 5, Str: "x"} reads back as Int(5), and a zero-kind value as the
// zero Value.
type Value struct {
	Kind Kind
	Str  string
	Int  int64
	F    float64
	Bool bool
}

// String constructs a string Value.
func String(s string) Value { return Value{Kind: KindString, Str: s} }

// Int constructs an integer Value.
func Int(i int64) Value { return Value{Kind: KindInt, Int: i} }

// Float constructs a floating-point Value.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// Bool constructs a boolean Value.
func Bool(b bool) Value { return Value{Kind: KindBool, Bool: b} }

// Stored returns v as the wire and every store keep it: its kind and
// only the payload that kind selects.
func (v Value) Stored() Value { return packCell(0, v).value() }

// IsZero reports whether v is the zero Value (no kind set).
func (v Value) IsZero() bool { return v.Kind == 0 }

// Equal reports whether two values are equal as stored: the same kind
// and the same payload that kind selects, so Value{Kind: KindInt, Int:
// 5, Str: "x"} equals Int(5), as GoString and Compare already treat it.
// It is Go's == on the values' Stored forms, which is also their
// equality as map keys (the store's indexes key by Stored form):
// Float(0) equals Float(-0), and a NaN equals nothing, itself included.
// Predicates, the store's scans and its indexes share this one equality.
func (v Value) Equal(o Value) bool { return v.Stored() == o.Stored() }

// Compare orders two values of the same kind. It returns -1, 0, or +1.
// Values of different kinds compare by kind so that ordering is total.
func (v Value) Compare(o Value) int {
	if v.Kind != o.Kind {
		if v.Kind < o.Kind {
			return -1
		}
		return 1
	}
	switch v.Kind {
	case KindString:
		return strings.Compare(v.Str, o.Str)
	case KindInt:
		switch {
		case v.Int < o.Int:
			return -1
		case v.Int > o.Int:
			return 1
		}
	case KindFloat:
		switch {
		case v.F < o.F:
			return -1
		case v.F > o.F:
			return 1
		}
	case KindBool:
		switch {
		case !v.Bool && o.Bool:
			return -1
		case v.Bool && !o.Bool:
			return 1
		}
	}
	return 0
}

// GoString renders the value for debugging output.
func (v Value) GoString() string { return string(v.appendGo(nil)) }

// appendGo appends the value as GoString renders it.
func (v Value) appendGo(b []byte) []byte {
	switch v.Kind {
	case KindString:
		return strconv.AppendQuote(b, v.Str)
	case KindInt:
		return strconv.AppendInt(b, v.Int, 10)
	case KindFloat:
		return strconv.AppendFloat(b, v.F, 'g', -1, 64)
	case KindBool:
		return strconv.AppendBool(b, v.Bool)
	default:
		return append(b, "<zero>"...)
	}
}

// Fields maps field names to values: the state portion of a memento.
type Fields map[string]Value

// Clone returns a deep copy of the field map. A nil map clones to nil.
func (f Fields) Clone() Fields {
	if f == nil {
		return nil
	}
	out := make(Fields, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// Equal reports whether two field maps hold exactly the same entries.
func (f Fields) Equal(o Fields) bool {
	if len(f) != len(o) {
		return false
	}
	for k, v := range f {
		ov, ok := o[k]
		if !ok || !v.Equal(ov) {
			return false
		}
	}
	return true
}

// Names returns the sorted field names, for deterministic rendering.
func (f Fields) Names() []string {
	names := make([]string, 0, len(f))
	for k := range f {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Memento is a serializable snapshot of one entity's state. Version is
// the persistent store's row version at the time the snapshot was taken;
// version 0 means the entity has never been persisted (a create).
//
// Mementos share the entity's notion of identity: two mementos with the
// same Key describe the same logical entity, possibly at different
// points in time.
type Memento struct {
	Key     Key
	Version uint64
	Fields  Fields
	// Delta marks Fields as an update's changed cells (see Since): the
	// row at Version keeps every cell Fields does not name. Only a
	// commit set's write and a checked put carry one, at a version read;
	// the store lays it over the row its lock and version check pin
	// (Apply). Every other memento is whole.
	Delta bool
}

// Clone returns a deep copy of the memento.
func (m Memento) Clone() Memento {
	m.Fields = m.Fields.Clone()
	return m
}

// Equal reports whether two mementos have the same key, version, and
// state.
func (m Memento) Equal(o Memento) bool {
	return m.Key == o.Key && m.Version == o.Version && m.Delta == o.Delta && m.Fields.Equal(o.Fields)
}

// Since returns m, an update's after-image, as its changed cells over
// before, the image the update was made from: Delta set, and Fields a
// fresh map of the cells m holds that before does not hold identically.
// Cells compare bit for bit, floats by their bits as Columns.Changed
// compares them, never by Value.Equal, which would take -0 for +0 and
// drop a NaN's new payload. m comes back whole, as it is, when its
// changed cells could not rebuild it over before (either map is nil, or
// m drops a field before holds), and when every cell changed, which the
// whole image says in as many bytes.
func (m Memento) Since(before Fields) Memento {
	if m.Fields == nil || before == nil || len(before) > len(m.Fields) {
		return m
	}
	same := 0
	for name, b := range before {
		v, ok := m.Fields[name]
		if !ok {
			return m
		}
		if identical(b, v) {
			same++
		}
	}
	if same == 0 {
		return m
	}
	changed := make(Fields, len(m.Fields)-same)
	for name, v := range m.Fields {
		if b, ok := before[name]; !ok || !identical(b, v) {
			changed[name] = v
		}
	}
	m.Fields, m.Delta = changed, true
	return m
}

// Apply returns m whole: a Delta's changed cells set over base, the
// image of the row at m.Version, which Apply takes over and edits; a
// whole m as it is.
func (m Memento) Apply(base Fields) Memento {
	if !m.Delta {
		return m
	}
	if base == nil {
		base = make(Fields, len(m.Fields))
	}
	for name, v := range m.Fields {
		base[name] = v
	}
	m.Fields, m.Delta = base, false
	return m
}

// String renders the memento for debugging.
func (m Memento) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s@v%d{", m.Key, m.Version)
	for i, name := range m.Fields.Names() {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s: %s", name, m.Fields[name].GoString())
	}
	sb.WriteByte('}')
	return sb.String()
}

// ReadProof records that a transaction observed an entity at a given
// version. At commit time the server verifies that the row is still at
// that version; version 0 proves that the key still does not exist.
type ReadProof struct {
	Key     Key
	Version uint64
}

// CommitSet carries an entire optimistic transaction to the validator:
// the versions it read, the after-images it wrote, the entities it
// created, and the entities it removed. In the split-servers
// configuration the whole set crosses the high-latency path in a single
// round trip; in the combined-servers configuration each element costs
// its own database access.
type CommitSet struct {
	// Reads are entities accessed but not modified. Each must still be
	// at the recorded version for the transaction to commit.
	Reads []ReadProof
	// Writes are after-images of modified entities. Each carries the
	// version observed at read time; the store bumps it on success.
	Writes []Memento
	// Creates are after-images of entities created by the transaction.
	// Each key must not exist at commit time.
	Creates []Memento
	// Removes are entities deleted by the transaction. Each must still
	// exist at the recorded version.
	Removes []ReadProof
	// Origin names the edge cache that ships the set (zero for none). The
	// store sends the commit's invalidation notice to every subscriber
	// but that edge's, which refreshes itself from the after-images.
	Origin uint64
}

// IsEmpty reports whether the commit set carries no work at all.
func (cs CommitSet) IsEmpty() bool {
	return len(cs.Reads) == 0 && len(cs.Writes) == 0 &&
		len(cs.Creates) == 0 && len(cs.Removes) == 0
}

// Mutations counts the elements that modify the persistent store.
func (cs CommitSet) Mutations() int {
	return len(cs.Writes) + len(cs.Creates) + len(cs.Removes)
}

// Size counts every element in the commit set; the combined-servers
// commit path performs roughly this many database accesses.
func (cs CommitSet) Size() int {
	return len(cs.Reads) + cs.Mutations()
}
