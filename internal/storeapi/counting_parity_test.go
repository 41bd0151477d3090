package storeapi

import (
	"context"
	"reflect"
	"testing"

	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
)

// methodSet maps exported method name -> signature with the receiver
// stripped, so concrete wrapper types compare equal to each other and
// to interface declarations.
func methodSet(t *testing.T, typ reflect.Type) map[string]string {
	t.Helper()
	out := make(map[string]string, typ.NumMethod())
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		sig := m.Type
		if typ.Kind() != reflect.Interface {
			// Concrete method signatures carry the receiver as In(0).
			in := make([]reflect.Type, 0, sig.NumIn()-1)
			for j := 1; j < sig.NumIn(); j++ {
				in = append(in, sig.In(j))
			}
			outTypes := make([]reflect.Type, 0, sig.NumOut())
			for j := 0; j < sig.NumOut(); j++ {
				outTypes = append(outTypes, sig.Out(j))
			}
			sig = reflect.FuncOf(in, outTypes, sig.IsVariadic())
		}
		out[m.Name] = sig.String()
	}
	return out
}

// requireSuperset fails unless every method of want exists on got with
// an identical signature.
func requireSuperset(t *testing.T, label string, got, want map[string]string) {
	t.Helper()
	for name, sig := range want {
		gotSig, ok := got[name]
		if !ok {
			t.Errorf("%s: missing method %s%s", label, name, sig)
			continue
		}
		if gotSig != sig {
			t.Errorf("%s: method %s signature = %s, want %s", label, name, gotSig, sig)
		}
	}
}

// TestCountingParityWithLocal pins the counting decorator to the local
// implementation by reflection: every method Local's Conn and Txn
// expose must exist on CountingConn and its Txn with an identical
// signature, but for Local's Preparer methods, which CountingConn hides
// (no counted deployment runs a cross-shard commit). A signature change
// that reaches Local but not Counting (or vice versa) fails here rather
// than at a distant call site.
func TestCountingParityWithLocal(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	seedOne(store, "t", "1", 1)
	ctx := context.Background()

	local := Local(store)
	counting := NewCountingConn(Local(store))
	defer counting.Close()
	defer local.Close()

	localConn := methodSet(t, reflect.TypeOf(local))
	countingConn := methodSet(t, reflect.TypeOf(counting))
	ifaceConn := methodSet(t, reflect.TypeOf((*Conn)(nil)).Elem())
	for name := range methodSet(t, reflect.TypeOf((*Preparer)(nil)).Elem()) {
		delete(localConn, name)
	}
	if _, ok := any(counting).(Preparer); ok {
		t.Error("CountingConn is a Preparer; it counts the Conn surface only")
	}
	requireSuperset(t, "CountingConn vs Local", countingConn, localConn)
	requireSuperset(t, "Local vs Conn interface", localConn, ifaceConn)
	requireSuperset(t, "CountingConn vs Conn interface", countingConn, ifaceConn)

	ltxn, err := local.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer ltxn.Abort(ctx)
	ctxn, err := counting.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer ctxn.Abort(ctx)

	localTxn := methodSet(t, reflect.TypeOf(ltxn))
	countingTxn := methodSet(t, reflect.TypeOf(ctxn))
	ifaceTxn := methodSet(t, reflect.TypeOf((*Txn)(nil)).Elem())
	requireSuperset(t, "countingTxn vs localTxn", countingTxn, localTxn)
	requireSuperset(t, "localTxn vs Txn interface", localTxn, ifaceTxn)
	requireSuperset(t, "countingTxn vs Txn interface", countingTxn, ifaceTxn)
}

// TestCountingCountsReadCalls: the reads (Get, Query, AutoGet,
// AutoQuery) each cost exactly one counted statement.
func TestCountingCountsReadCalls(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	seedOne(store, "t", "1", 1)
	ctx := context.Background()
	conn := NewCountingConn(Local(store))
	defer conn.Close()

	before := conn.Ops()
	if _, err := conn.AutoGet(ctx, "t", "1"); err != nil {
		t.Fatal(err)
	}
	if got := conn.Ops() - before; got != 1 {
		t.Errorf("AutoGet cost %d ops, want 1", got)
	}

	before = conn.Ops()
	if _, err := conn.AutoQuery(ctx, memento.Query{Table: "t"}); err != nil {
		t.Fatal(err)
	}
	if got := conn.Ops() - before; got != 1 {
		t.Errorf("AutoQuery cost %d ops, want 1", got)
	}

	txn, err := conn.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Abort(ctx)
	before = conn.Ops()
	if _, err := txn.Get(ctx, "t", "1"); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Query(ctx, memento.Query{Table: "t"}); err != nil {
		t.Fatal(err)
	}
	if got := conn.Ops() - before; got != 2 {
		t.Errorf("Get+Query cost %d ops, want 2", got)
	}
}
