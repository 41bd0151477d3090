package memento

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// A cell is what the memory at rest pays per field.
func TestCellIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Cell{}); got != 32 {
		t.Fatalf("Cell is %d bytes, want 32", got)
	}
}

// packValues are values of every kind, both zeros and a NaN, and
// non-canonical values whose extra payloads the stored form drops.
var packValues = []Value{
	{},
	String(""), String("x"),
	Int(0), Int(-5), Int(math.MaxInt64),
	Float(0), Float(math.Copysign(0, -1)), Float(math.NaN()), Float(math.Inf(-1)), Float(2.5),
	Bool(false), Bool(true),
	{Kind: KindInt, Int: 5, Str: "x"},
	{Kind: KindFloat, F: 1, Int: 9, Bool: true},
	{Kind: KindBool, Bool: true, Str: "y", Int: 3},
	{Str: "zero kind", Int: 1},
}

// wireForm is the value as dbwire carries it: its kind and the one
// payload that kind selects, a float by its bits.
func wireForm(v Value) Value {
	out := Value{Kind: v.Kind}
	switch v.Kind {
	case KindString:
		out.Str = v.Str
	case KindInt:
		out.Int = v.Int
	case KindFloat:
		out.F = v.F
	case KindBool:
		out.Bool = v.Bool
	}
	return out
}

// sameBits is exact identity, floats by their bits.
func sameBits(a, b Value) bool {
	return a.Kind == b.Kind && a.Str == b.Str && a.Int == b.Int && a.Bool == b.Bool &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

// TestPackedRowRoundTrip packs random field maps against one column
// list, whose fields later rows extend, and reads each row back: every
// value comes back in its wire form, bit for bit, and the unpacked map
// is the caller's own.
func TestPackedRowRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var cols Columns
		type packed struct {
			in  Fields
			row Row
		}
		var rows []packed
		for i := range 20 {
			var in Fields
			if rng.Intn(6) > 0 {
				in = Fields{}
				for _, name := range []string{"a", "b", "c", "d"}[:1+min(i/5, 3)] {
					if rng.Intn(3) > 0 {
						in[name] = packValues[rng.Intn(len(packValues))]
					}
				}
			}
			rows = append(rows, packed{in: in, row: cols.Pack(in)})
		}
		for _, p := range rows {
			got := cols.Unpack(p.row)
			if (got == nil) != (p.in == nil) || len(got) != len(p.in) {
				t.Logf("seed %d: unpacked %v, want %v", seed, got, p.in)
				return false
			}
			for name, v := range p.in {
				if g, ok := got[name]; !ok || !sameBits(g, wireForm(v)) || !sameBits(v.Stored(), wireForm(v)) {
					t.Logf("seed %d: %s = %#v, want %#v", seed, name, g, wireForm(v))
					return false
				}
			}
			if got != nil {
				got["scribbled"] = Int(1)
				if again := cols.Unpack(p.row); len(again) != len(p.in) {
					t.Logf("seed %d: a write to an unpacked map reached the row", seed)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPackedMatchesIsValueEqual checks that a predicate tested against
// a packed cell and one tested against a field map both agree with
// Value.Equal, for every pair of values: 0 matches -0, a NaN matches
// nothing, a payload the kind does not select is ignored, kinds that
// share a payload never match each other, and a missing field never
// matches.
func TestPackedMatchesIsValueEqual(t *testing.T) {
	var cols Columns
	for _, stored := range packValues {
		row := cols.Pack(Fields{"f": stored})
		for _, probe := range packValues {
			where := []Predicate{Where("f", probe)}
			c, ok := cols.Where(where, nil)
			if !ok {
				t.Fatal("field f has no column")
			}
			want := stored.Equal(probe)
			if got := row.Matches(where, c); got != want {
				t.Errorf("row %#v, probe %#v: Matches = %v, want %v", stored, probe, got, want)
			}
			if got := where[0].Matches(Fields{"f": stored}); got != want {
				t.Errorf("fields %#v, probe %#v: Predicate.Matches = %v, want %v", stored, probe, got, want)
			}
		}
	}
	zero, negZero := cols.Pack(Fields{"f": Float(0)}), cols.Pack(Fields{"f": Float(math.Copysign(0, -1))})
	for _, r := range []Row{zero, negZero} {
		if !r.Matches([]Predicate{Where("f", Float(0))}, []uint32{0}) {
			t.Error("Float(0) must match both zeros")
		}
	}
	nan := cols.Pack(Fields{"f": Float(math.NaN())})
	if nan.Matches([]Predicate{Where("f", Float(math.NaN()))}, []uint32{0}) {
		t.Error("a NaN must match nothing, itself included")
	}
	late := cols.Column("late")
	if zero.Matches([]Predicate{Where("late", Value{})}, []uint32{late}) {
		t.Error("a row without the field must not match, even a zero-kind probe")
	}
	if _, ok := cols.Where([]Predicate{Where("never", Int(1))}, nil); ok {
		t.Error("a field with no column must make Where report false")
	}
}
