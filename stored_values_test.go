package edgeejb_test

import (
	"context"
	"math"
	"testing"

	"edgeejb/internal/dbwire"
	"edgeejb/internal/memento"
	"edgeejb/internal/slicache"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// TestStoredValuesReadBackAlike writes values that carry payloads their
// kind does not select and reads them back through every layer that
// keeps or carries a row: the store through storeapi.Local, the store
// through dbwire (written and read over the wire), and the edge's
// common store. Each keeps only the payload the kind selects, so all
// three return the same Stored form, bit for bit, and a probe carrying
// a stray payload selects the same rows in the store and in
// memento.Query's own matchers.
func TestStoredValuesReadBackAlike(t *testing.T) {
	negZero := math.Copysign(0, -1)
	fields := memento.Fields{
		"int":   {Kind: memento.KindInt, Int: 5, Str: "x"},
		"float": {Kind: memento.KindFloat, F: negZero, Bool: true},
		"bool":  {Kind: memento.KindBool, Bool: true, Int: 7},
		"str":   {Kind: memento.KindString, Str: "s", F: 2},
		"zero":  {Str: "no kind", Int: 1},
	}
	want := memento.Fields{
		"int":   memento.Int(5),
		"float": memento.Float(negZero),
		"bool":  memento.Bool(true),
		"str":   memento.String("s"),
		"zero":  {},
	}
	same := func(a, b memento.Value) bool {
		return a.Kind == b.Kind && a.Str == b.Str && a.Int == b.Int && a.Bool == b.Bool &&
			math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	for name, v := range fields {
		if !same(v.Stored(), want[name]) {
			t.Errorf("Stored(%#v) = %#v, want %#v", v, v.Stored(), want[name])
		}
	}
	check := func(path string, got memento.Fields) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: read back %v, want %v", path, got, want)
			return
		}
		for name, w := range want {
			if !same(got[name], w) {
				t.Errorf("%s: %s = %#v, want %#v", path, name, got[name], w)
			}
		}
	}

	ctx := context.Background()
	store := sqlstore.New()
	defer store.Close()
	local := storeapi.Local(store)
	srv := dbwire.NewServer(local)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := dbwire.Dial(srv.Addr())
	defer client.Close()

	probe := memento.Query{Table: "t", Where: []memento.Predicate{memento.Where("int", fields["int"])}}
	byLocal := memento.Key{Table: "t", ID: "local"}
	byWire := memento.Key{Table: "t", ID: "wire"}
	if _, err := local.ApplyCommitSet(ctx, memento.CommitSet{Creates: []memento.Memento{{Key: byLocal, Fields: fields.Clone()}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.ApplyCommitSet(ctx, memento.CommitSet{Creates: []memento.Memento{{Key: byWire, Fields: fields.Clone()}}}); err != nil {
		t.Fatal(err)
	}
	for _, conn := range []struct {
		name string
		c    storeapi.Conn
	}{{"storeapi.Local", local}, {"dbwire", client}} {
		for _, key := range []memento.Key{byLocal, byWire} {
			got, err := conn.c.AutoGet(ctx, key.Table, key.ID)
			if err != nil {
				t.Fatal(err)
			}
			check(conn.name+" get "+key.ID, got.Mem.Fields)
		}
		// A probe with the stray payload selects both rows, as its
		// stored form does.
		res, err := conn.c.AutoQuery(ctx, probe)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Mems) != 2 {
			t.Errorf("%s: a probe of %#v selected %d rows, want 2", conn.name, fields["int"], len(res.Mems))
		}
		for _, m := range res.Mems {
			if !probe.Matches(m) {
				t.Errorf("%s: the edge's matcher rejects row %s, which the store selected", conn.name, m.Key.ID)
			}
		}
	}
	// The edge's own matchers, which its overlay and its finder-cache
	// guards use, agree with the store on the written and the stored
	// forms alike.
	for _, f := range []memento.Fields{fields, want} {
		guard := probe.Overlaps(nil, []memento.WriteDesc{{Key: byLocal, After: f}})
		if !probe.Matches(memento.Memento{Key: byLocal, Fields: f}) || !guard {
			t.Errorf("memento.Query does not match %v against its own probe %#v", f, fields["int"])
		}
	}

	common := slicache.NewCommonStore()
	common.Put(memento.Memento{Key: byLocal, Version: 1, Fields: fields})
	got, ok := common.Get(byLocal)
	if !ok {
		t.Fatal("common store lost the entry")
	}
	check("common store", got.Fields)
}
