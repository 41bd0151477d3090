package memento

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestKeyString(t *testing.T) {
	k := Key{Table: "account", ID: "uid-7"}
	if got, want := k.String(), "account/uid-7"; got != want {
		t.Errorf("Key.String() = %q, want %q", got, want)
	}
}

func TestValueConstructorsAndKinds(t *testing.T) {
	tests := []struct {
		name string
		give Value
		want Kind
	}{
		{"string", String("x"), KindString},
		{"int", Int(42), KindInt},
		{"float", Float(3.5), KindFloat},
		{"bool", Bool(true), KindBool},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.give.Kind != tt.want {
				t.Errorf("kind = %v, want %v", tt.give.Kind, tt.want)
			}
			if tt.give.IsZero() {
				t.Error("constructed value reported zero")
			}
		})
	}
	var zero Value
	if !zero.IsZero() {
		t.Error("zero value not reported zero")
	}
}

func TestValueCompare(t *testing.T) {
	tests := []struct {
		name string
		a, b Value
		want int
	}{
		{"str lt", String("a"), String("b"), -1},
		{"str eq", String("a"), String("a"), 0},
		{"str gt", String("b"), String("a"), 1},
		{"int lt", Int(1), Int(2), -1},
		{"int eq", Int(2), Int(2), 0},
		{"int gt", Int(3), Int(2), 1},
		{"float lt", Float(1.5), Float(2.5), -1},
		{"float eq", Float(2.5), Float(2.5), 0},
		{"bool lt", Bool(false), Bool(true), -1},
		{"bool eq", Bool(true), Bool(true), 0},
		{"bool gt", Bool(true), Bool(false), 1},
		{"cross-kind", String("z"), Int(1), -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Compare(tt.b); got != tt.want {
				t.Errorf("Compare = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b Value) bool {
		return a.Compare(b) == -b.Compare(a)
	}
	cfg := &quick.Config{Values: randomValuePair}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// randomValuePair generates two arbitrary Values of arbitrary kinds.
func randomValuePair(args []reflect.Value, rng *rand.Rand) {
	for i := range args {
		args[i] = reflect.ValueOf(randomValue(rng))
	}
}

func randomValue(rng *rand.Rand) Value {
	switch rng.Intn(4) {
	case 0:
		return String(randomString(rng))
	case 1:
		return Int(rng.Int63n(1000) - 500)
	case 2:
		return Float(rng.NormFloat64())
	default:
		return Bool(rng.Intn(2) == 0)
	}
}

func randomString(rng *rand.Rand) string {
	n := rng.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

func randomMemento(rng *rand.Rand) Memento {
	fields := make(Fields)
	for i, n := 0, rng.Intn(6); i < n; i++ {
		fields[randomString(rng)+"f"] = randomValue(rng)
	}
	return Memento{
		Key:     Key{Table: randomString(rng) + "t", ID: randomString(rng) + "i"},
		Version: uint64(rng.Intn(10)),
		Fields:  fields,
	}
}

func TestFieldsCloneIndependence(t *testing.T) {
	f := Fields{"a": Int(1), "b": String("x")}
	c := f.Clone()
	c["a"] = Int(2)
	if f["a"].Int != 1 {
		t.Error("mutating clone affected original")
	}
	if !f.Equal(Fields{"a": Int(1), "b": String("x")}) {
		t.Error("original changed")
	}
	var nilFields Fields
	if nilFields.Clone() != nil {
		t.Error("nil Fields should clone to nil")
	}
}

func TestFieldsEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b Fields
		want bool
	}{
		{"both empty", Fields{}, Fields{}, true},
		{"nil vs empty", nil, Fields{}, true},
		{"same", Fields{"x": Int(1)}, Fields{"x": Int(1)}, true},
		{"different value", Fields{"x": Int(1)}, Fields{"x": Int(2)}, false},
		{"different key", Fields{"x": Int(1)}, Fields{"y": Int(1)}, false},
		{"subset", Fields{"x": Int(1)}, Fields{"x": Int(1), "y": Int(2)}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Equal(tt.b); got != tt.want {
				t.Errorf("Equal = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMementoCloneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMemento(rng)
		c := m.Clone()
		if !m.Equal(c) {
			return false
		}
		// Mutating the clone must not affect the original.
		for k := range c.Fields {
			c.Fields[k] = Int(99999)
			break
		}
		c.Version++
		return m.Equal(m.Clone())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMementoGobRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMemento(rng)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(m); err != nil {
			return false
		}
		var out Memento
		if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
			return false
		}
		return m.Equal(out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMementoString(t *testing.T) {
	m := Memento{
		Key:     Key{Table: "quote", ID: "s-1"},
		Version: 3,
		Fields:  Fields{"price": Float(10), "company": String("ACME")},
	}
	got := m.String()
	want := `quote/s-1@v3{company: "ACME", price: 10}`
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestCommitSetAccounting(t *testing.T) {
	var empty CommitSet
	if !empty.IsEmpty() {
		t.Error("zero CommitSet should be empty")
	}
	cs := CommitSet{
		Reads:   []ReadProof{{Key: Key{Table: "a", ID: "1"}, Version: 1}},
		Writes:  []Memento{{Key: Key{Table: "b", ID: "2"}, Version: 1}},
		Creates: []Memento{{Key: Key{Table: "a", ID: "3"}}},
		Removes: []ReadProof{{Key: Key{Table: "c", ID: "4"}, Version: 2}},
	}
	if cs.IsEmpty() {
		t.Error("populated CommitSet reported empty")
	}
	if got, want := cs.Mutations(), 3; got != want {
		t.Errorf("Mutations = %d, want %d", got, want)
	}
	if got, want := cs.Size(), 4; got != want {
		t.Errorf("Size = %d, want %d", got, want)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := map[Kind]string{
		KindString: "string", KindInt: "int", KindFloat: "float",
		KindBool: "bool", Kind(0): "invalid",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestValueGoString(t *testing.T) {
	tests := []struct {
		give Value
		want string
	}{
		{String("x"), `"x"`},
		{Int(-3), "-3"},
		{Float(2.5), "2.5"},
		{Bool(true), "true"},
		{Value{}, "<zero>"},
	}
	for _, tt := range tests {
		if got := tt.give.GoString(); got != tt.want {
			t.Errorf("GoString(%v) = %q, want %q", tt.give, got, tt.want)
		}
	}
}
