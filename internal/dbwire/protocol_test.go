package dbwire

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
)

func TestOpCodeStrings(t *testing.T) {
	want := map[OpCode]string{
		OpBegin: "Begin", OpGet: "Get", OpGetForUpdate: "GetForUpdate",
		OpPut: "Put", OpInsert: "Insert", OpDelete: "Delete",
		OpQuery: "Query", OpCheckVersion: "CheckVersion",
		OpCheckedPut: "CheckedPut", OpCheckedDelete: "CheckedDelete",
		OpCommit: "Commit", OpAbort: "Abort",
		OpApplyCommitSet: "ApplyCommitSet", OpSubscribe: "Subscribe",
		OpPing: "Ping", OpAutoGet: "AutoGet", OpAutoQuery: "AutoQuery",
		OpCode(250): "OpCode(250)",
	}
	for op, s := range want {
		if got := op.String(); got != s {
			t.Errorf("OpCode(%d).String() = %q, want %q", op, got, s)
		}
	}
}

// TestErrorCodecRoundTrip: every sentinel must survive encode/decode so
// errors.Is works across the wire; unknown errors map to Internal.
func TestErrorCodecRoundTrip(t *testing.T) {
	sentinels := []error{
		sqlstore.ErrNotFound,
		sqlstore.ErrExists,
		sqlstore.ErrConflict,
		sqlstore.ErrTxDone,
		sqlstore.ErrClosed,
	}
	for _, sentinel := range sentinels {
		wrapped := fmt.Errorf("context: %w", sentinel)
		code, msg := encodeErr(wrapped)
		back := decodeErr(&Response{Code: code, Msg: msg})
		if !errors.Is(back, sentinel) {
			t.Errorf("sentinel %v lost across codec (code %d)", sentinel, code)
		}
		if back.Error() != wrapped.Error() {
			t.Errorf("message %q != %q", back.Error(), wrapped.Error())
		}
	}
	// nil round trip.
	if code, msg := encodeErr(nil); decodeErr(&Response{Code: code, Msg: msg}) != nil {
		t.Error("nil error did not survive")
	}
	// Unknown errors map to Internal and stay errors.
	code, msg := encodeErr(errors.New("boom"))
	if code != CodeInternal {
		t.Errorf("unknown error code = %d", code)
	}
	if got := decodeErr(&Response{Code: code, Msg: msg}); got == nil || !strings.Contains(got.Error(), "boom") {
		t.Errorf("internal error mangled: %v", got)
	}
	// BadRequest decodes to a plain error.
	if got := decodeErr(&Response{Code: CodeBadRequest, Msg: "nope"}); got == nil || !strings.Contains(got.Error(), "nope") {
		t.Errorf("bad request mangled: %v", got)
	}
	// Empty message falls back to the sentinel's text.
	if got := decodeErr(&Response{Code: CodeNotFound}); got.Error() != sqlstore.ErrNotFound.Error() {
		t.Errorf("empty-message fallback = %q", got.Error())
	}
}

func TestRemoteCheckedOps(t *testing.T) {
	store, client := newPair(t)
	seed(store, "t", "1", 10)
	ctx := context.Background()

	txn, err := client.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	key := memento.Key{Table: "t", ID: "1"}
	if err := txn.CheckedPut(ctx, memento.Memento{
		Key: key, Version: 1, Fields: memento.Fields{"v": memento.Int(11)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	txn2, err := client.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn2.CheckedDelete(ctx, key, 1); !errors.Is(err, sqlstore.ErrConflict) {
		t.Fatalf("stale remote CheckedDelete: %v", err)
	}
	_ = txn2.Abort(ctx)
	txn3, err := client.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn3.CheckedDelete(ctx, key, 2); err != nil {
		t.Fatal(err)
	}
	if err := txn3.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if store.RowCount("t") != 0 {
		t.Error("remote checked delete not applied")
	}
}

func TestRemoteGetForUpdate(t *testing.T) {
	store, client := newPair(t)
	seed(store, "t", "1", 10)
	ctx := context.Background()

	txn, err := client.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := txn.GetForUpdate(ctx, "t", "1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.Fields["v"].Int != 10 {
		t.Errorf("v = %d", res.Mem.Fields["v"].Int)
	}
	// The X lock blocks a second transaction's read until release.
	txn2, err := client.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn2.Get(ctx, "t", "1"); !errors.Is(err, sqlstore.ErrConflict) {
		t.Fatalf("expected lock conflict through the wire, got %v", err)
	}
	_ = txn2.Abort(ctx)
	_ = txn.Abort(ctx)
}

func TestWireErrorMessageFallback(t *testing.T) {
	e := wireError{sentinel: sqlstore.ErrConflict}
	if e.Error() != sqlstore.ErrConflict.Error() {
		t.Errorf("fallback = %q", e.Error())
	}
	e = wireError{sentinel: sqlstore.ErrConflict, msg: "specific"}
	if e.Error() != "specific" {
		t.Errorf("message = %q", e.Error())
	}
}
