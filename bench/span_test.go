package main

import (
	"context"
	"math"
	"testing"
	"time"

	"edgeejb/internal/dbwire"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// A decorated dbwire client must cost exactly the round trips a bare one
// does: hiding ExecBatch would turn one exchange into one per statement.
func TestSpanConnKeepsBatchingAndPrepare(t *testing.T) {
	ctx := context.Background()
	store := sqlstore.New()
	defer store.Close()
	m := ladderAccount("uid-1")
	store.Seed(m)
	srv := dbwire.NewServer(storeapi.Local(store))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	batched := func(conn storeapi.Conn) {
		t.Helper()
		txn, err := conn.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		res, err := storeapi.ExecBatch(ctx, txn, []storeapi.Stmt{
			{Kind: storeapi.StmtGetForUpdate, Table: m.Key.Table, ID: m.Key.ID},
			{Kind: storeapi.StmtPut, Mem: m},
			{Kind: storeapi.StmtCommit},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("statement %d: %v", i, r.Err)
			}
		}
	}
	trips := func(wrap bool) uint64 {
		t.Helper()
		c := dbwire.Dial(srv.Addr())
		defer c.Close()
		if err := c.Ping(ctx); err != nil {
			t.Fatal(err)
		}
		var conn storeapi.Conn = c
		rec := newRecorder(time.Now())
		if wrap {
			conn = newSpanConn(c, rec)
			if _, ok := conn.(storeapi.Preparer); !ok {
				t.Error("decorator hides storeapi.Preparer of a dbwire client")
			}
		}
		before := c.WireStats().RoundTrips
		batched(conn)
		if wrap {
			if spans := rec.take(); len(spans) != 2 || spans[0].op != "Begin" || spans[1].op != "ExecBatch" {
				t.Errorf("recorded spans %+v, want Begin then ExecBatch", spans)
			}
		}
		return c.WireStats().RoundTrips - before
	}
	// Begin and the batch, plus the new pinned connection's handshake;
	// statement by statement it would be five.
	bare, wrapped := trips(false), trips(true)
	if bare > 3 || wrapped != bare {
		t.Errorf("batched transaction: %d round trips bare, %d decorated, want at most 3 and equal", bare, wrapped)
	}
}

// plainConn has neither optional interface.
type plainConn struct{ storeapi.Conn }

type plainTxn struct{ storeapi.Txn }

func (plainConn) Begin(context.Context) (storeapi.Txn, error) { return plainTxn{}, nil }

func TestSpanConnAddsNoCapability(t *testing.T) {
	conn := newSpanConn(plainConn{}, newRecorder(time.Now()))
	if _, ok := conn.(storeapi.Preparer); ok {
		t.Error("decorator invents storeapi.Preparer")
	}
	txn, err := conn.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := txn.(storeapi.BatchTxn); ok {
		t.Error("decorator invents storeapi.BatchTxn")
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	parent := span{start: 100, end: 200}
	children := []span{
		{start: 110, end: 130},
		{start: 120, end: 150}, // overlaps the first: adds 20, not 30
		{start: 160, end: 170},
		{start: 190, end: 230}, // runs past the parent: clipped to 10
	}
	if got := covered(parent, children); got != 20+20+10+10 {
		t.Errorf("covered = %d, want 60", got)
	}
	if self := parent.dur() - covered(parent, children); self != 40 {
		t.Errorf("self time = %d, want 40", self)
	}
	if got := covered(parent, nil); got != 0 {
		t.Errorf("covered with no children = %d", got)
	}
}

// Back-to-back interactions share an instant: a child that starts when
// one root ends belongs to the next root, and a child between roots or
// overrunning its root belongs to none.
func TestAssignByTimeContainment(t *testing.T) {
	roots := []span{{start: 0, end: 100}, {start: 100, end: 250}, {start: 300, end: 400}}
	children := []span{
		{start: 10, end: 90},   // root 0
		{start: 100, end: 120}, // root 1, not root 0
		{start: 130, end: 250}, // root 1, ends with it
		{start: 260, end: 280}, // in the gap
		{start: 390, end: 410}, // overruns root 2
	}
	want := []int{0, 1, 1, -1, -1}
	got := assign(roots, children)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("child %d assigned to %d, want %d", i, got[i], want[i])
		}
	}
}

func TestPercentileAndMedianOfRounds(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {0.95, 4.8}, {1, 5}} {
		if got := percentile(sorted, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one sample = %v", got)
	}
	// One slow round must not move the reported figure.
	p := &phase{rounds: []roundStats{{p50: 1.0}, {p50: 9.0}, {p50: 1.2}, {p50: 1.1}}}
	q := p.over(func(r roundStats) float64 { return r.p50 })
	if q.median != 1.15 || q.n != 4 {
		t.Errorf("median over rounds = %v of %d, want 1.15 of 4", q.median, q.n)
	}
	if ratio(3, 0) != 0 {
		t.Error("ratio with a zero base must be 0")
	}
}
