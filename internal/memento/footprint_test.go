package memento

import "testing"

func fpRow(id, acct string) Memento {
	return Memento{
		Key:     Key{Table: "holding", ID: id},
		Version: 1,
		Fields:  Fields{"acct": String(acct)},
	}
}

func holdingsBy(acct string) Query {
	return Query{Table: "holding", Where: []Predicate{Where("acct", String(acct))}}
}

func TestFootprintKeyOverlap(t *testing.T) {
	fp := Footprint{Keys: []Key{{Table: "t", ID: "1"}}}
	if !fp.OverlapsWrite(WriteDesc{Key: Key{Table: "t", ID: "1"}}) {
		t.Fatal("write to a read key must overlap")
	}
	if fp.OverlapsWrite(WriteDesc{Key: Key{Table: "t", ID: "2"}}) {
		t.Fatal("write to an unread key in a table without predicate reads must not overlap")
	}
}

func TestFootprintQueryOverlap(t *testing.T) {
	q := holdingsBy("u1")
	fp := QueryFootprint(q, []Memento{fpRow("h1", "u1")})
	if !fp.CoversKey(Key{Table: "holding", ID: "h1"}) {
		t.Fatal("result rows must enter the footprint's key set")
	}

	// A create whose after-image matches the predicate changes the
	// result set even though its key was never read.
	create := WriteDesc{Key: Key{Table: "holding", ID: "h-new"}, After: Fields{"acct": String("u1")}}
	if !fp.OverlapsWrite(create) {
		t.Fatal("matching create must overlap the query footprint")
	}

	// An update that moves a row OUT of the result set writes one of its
	// keys.
	moveOut := WriteDesc{Key: Key{Table: "holding", ID: "h1"}, After: Fields{"acct": String("u2")}}
	if !fp.OverlapsWrite(moveOut) {
		t.Fatal("update moving a row out of the result set must overlap (key)")
	}
	// So does a remove, which carries no after-image.
	if !fp.OverlapsWrite(WriteDesc{Key: Key{Table: "holding", ID: "h1"}, Removed: true}) {
		t.Fatal("removing a row of the result set must overlap (key)")
	}

	// Unrelated rows in the same table do not overlap, whether updated
	// or removed.
	other := WriteDesc{Key: Key{Table: "holding", ID: "h-far"}, After: Fields{"acct": String("u9")}}
	if fp.OverlapsWrite(other) {
		t.Fatal("non-matching write must not overlap")
	}
	if fp.OverlapsWrite(WriteDesc{Key: Key{Table: "holding", ID: "h-far"}, Removed: true}) {
		t.Fatal("removing a row outside the result set must not overlap")
	}

	// Same predicate, different table.
	otherTable := WriteDesc{Key: Key{Table: "quote", ID: "s1"}, After: Fields{"acct": String("u1")}}
	if fp.OverlapsWrite(otherTable) {
		t.Fatal("write to a different table must not overlap")
	}

	// Blind writes (no field images) conservatively overlap predicates
	// on the same table.
	blind := WriteDesc{Key: Key{Table: "holding", ID: "h-blind"}}
	if !fp.OverlapsWrite(blind) {
		t.Fatal("blind write on the queried table must overlap conservatively")
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
