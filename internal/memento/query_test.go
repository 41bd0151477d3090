package memento

import (
	"math"
	"testing"
)

func TestPredicateMatches(t *testing.T) {
	fields := Fields{
		"name":  String("bravo"),
		"count": Int(5),
		"zero":  Float(0),
		"nan":   Float(math.NaN()),
		"open":  Bool(true),
	}
	tests := []struct {
		name string
		give Predicate
		want bool
	}{
		{"eq hit", Where("name", String("bravo")), true},
		{"eq miss", Where("name", String("alpha")), false},
		{"kind differs", Where("count", Float(5)), false},
		{"negative zero", Where("zero", Float(math.Copysign(0, -1))), true},
		{"nan equals nothing", Where("nan", Float(math.NaN())), false},
		{"missing field", Where("ghost", Int(1)), false},
		{"bool eq", Where("open", Bool(true)), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.give.Matches(fields); got != tt.want {
				t.Errorf("Matches = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestQueryMatchesConjunction(t *testing.T) {
	m := Memento{
		Key:    Key{Table: "holding", ID: "h-1"},
		Fields: Fields{"accountID": String("u1"), "quantity": Float(10)},
	}
	q := Query{
		Table: "holding",
		Where: []Predicate{
			Where("accountID", String("u1")),
			Where("quantity", Float(10)),
		},
	}
	if !q.Matches(m) {
		t.Error("conjunction should match")
	}
	q.Where[1].Value = Float(50)
	if q.Matches(m) {
		t.Error("failing predicate should fail the conjunction")
	}
	other := m
	other.Key.Table = "quote"
	q.Where[1].Value = Float(10)
	if q.Matches(other) {
		t.Error("wrong table should never match")
	}
}

func TestQueryEmptyWhereMatchesTable(t *testing.T) {
	q := Query{Table: "t"}
	if !q.Matches(Memento{Key: Key{Table: "t", ID: "1"}}) {
		t.Error("empty WHERE should match any row of the table")
	}
}

func TestQueryString(t *testing.T) {
	q := Query{
		Table: "holding",
		Where: []Predicate{Where("accountID", String("u1"))},
	}
	want := `SELECT * FROM holding WHERE accountID = "u1"`
	if got := q.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestQueryNormalizeAndCacheKey(t *testing.T) {
	a := Query{Table: "t", Where: []Predicate{
		Where("b", Int(2)),
		Where("a", Int(1)),
	}}
	b := Query{Table: "t", Where: []Predicate{
		Where("a", Int(1)),
		Where("b", Int(2)),
	}}
	if a.CacheKey() != b.CacheKey() {
		t.Fatalf("reordered conjunctions must share a cache key:\n  %s\n  %s", a.CacheKey(), b.CacheKey())
	}
	// Normalize must not mutate the receiver's predicate slice order.
	if a.Where[0].Field != "b" {
		t.Fatal("Normalize mutated the original query")
	}
}
