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

// TestOverlapsResultRow: a write to one of the result's rows overlaps
// even when its cells leave the predicate alone; the same write to a
// row outside the result does not.
func TestOverlapsResultRow(t *testing.T) {
	q := holdingsBy("u1")
	rows := []Memento{fpRow("h1", "u1")}
	bump := Fields{"n": Int(1)}
	if !q.Overlaps(rows, []WriteDesc{{Key: Key{Table: "holding", ID: "h1"}, After: bump}}) {
		t.Fatal("write to a result row must overlap")
	}
	if q.Overlaps(rows, []WriteDesc{{Key: Key{Table: "holding", ID: "h2"}, After: bump}}) {
		t.Fatal("write to another row that names no predicate field must not overlap")
	}
}

func TestOverlapsQuery(t *testing.T) {
	q := holdingsBy("u1")
	rows := []Memento{fpRow("h1", "u1")}
	overlaps := func(w WriteDesc) bool { return q.Overlaps(rows, []WriteDesc{w}) }

	// A create whose after-image matches the predicate changes the
	// result set even though its key was never read.
	create := WriteDesc{Key: Key{Table: "holding", ID: "h-new"}, After: Fields{"acct": String("u1")}}
	if !overlaps(create) {
		t.Fatal("matching create must overlap the query")
	}

	// An update that moves a row OUT of the result set writes one of its
	// rows.
	moveOut := WriteDesc{Key: Key{Table: "holding", ID: "h1"}, After: Fields{"acct": String("u2")}}
	if !overlaps(moveOut) {
		t.Fatal("update moving a row out of the result set must overlap (row)")
	}
	// So does a remove, which carries no after-image.
	if !overlaps(WriteDesc{Key: Key{Table: "holding", ID: "h1"}, Removed: true}) {
		t.Fatal("removing a row of the result set must overlap (row)")
	}

	// Unrelated rows in the same table do not overlap, whether updated
	// or removed.
	other := WriteDesc{Key: Key{Table: "holding", ID: "h-far"}, After: Fields{"acct": String("u9")}}
	if overlaps(other) {
		t.Fatal("non-matching write must not overlap")
	}
	if overlaps(WriteDesc{Key: Key{Table: "holding", ID: "h-far"}, Removed: true}) {
		t.Fatal("removing a row outside the result set must not overlap")
	}

	// Same predicate, different table.
	otherTable := WriteDesc{Key: Key{Table: "quote", ID: "s1"}, After: Fields{"acct": String("u1")}}
	if overlaps(otherTable) {
		t.Fatal("write to a different table must not overlap")
	}

	// Blind writes (no field images) conservatively overlap predicates
	// on the same table.
	blind := WriteDesc{Key: Key{Table: "holding", ID: "h-blind"}}
	if !overlaps(blind) {
		t.Fatal("blind write on the queried table must overlap conservatively")
	}

	// One overlapping write in a set is enough.
	if !q.Overlaps(rows, []WriteDesc{other, otherTable, create}) {
		t.Fatal("a set holding a matching create must overlap")
	}
}
