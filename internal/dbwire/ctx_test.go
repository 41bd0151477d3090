package dbwire

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"edgeejb/internal/latency"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// stallListener accepts connections and never answers — the "database
// server wedged" scenario.
func stallListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	return ln
}

// TestAutoGetHonorsDeadlineOnStalledServer: the regression for the old
// client ignoring ctx once a connection was checked out — an in-flight
// call against a stalled server must return by the context deadline.
func TestAutoGetHonorsDeadlineOnStalledServer(t *testing.T) {
	ln := stallListener(t)
	client := Dial(ln.Addr().String())
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.AutoGet(ctx, "t", "1")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("AutoGet against stalled server succeeded")
	}
	if ctx.Err() == nil {
		t.Fatalf("returned before its deadline with %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("AutoGet hung %v past its 150ms deadline", elapsed)
	}
}

// TestTxnCallHonorsDeadline: deadlines propagate on transaction
// statements too, not just autocommit calls.
func TestTxnCallHonorsDeadline(t *testing.T) {
	store := sqlstore.New(sqlstore.WithLockTimeout(10 * time.Second))
	defer store.Close()
	seed(store, "t", "1", 1)
	srv := NewServer(storeapi.Local(store))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := Dial(srv.Addr())
	defer client.Close()
	ctx := context.Background()

	// Holder transaction takes the row lock and sits on it.
	holder, err := client.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Abort(ctx)
	if _, err := holder.GetForUpdate(ctx, "t", "1"); err != nil {
		t.Fatal(err)
	}

	// The contender blocks server-side on the lock; its deadline must
	// cut the wait short from the client side.
	contender, err := client.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = contender.GetForUpdate(dctx, "t", "1")
	if err == nil {
		t.Fatal("contended GetForUpdate succeeded under a 200ms deadline")
	}
	if dctx.Err() == nil {
		t.Fatalf("returned before its deadline with %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("txn call hung %v past its deadline", elapsed)
	}
	_ = contender.Abort(ctx)
}

// TestCancelledTxnReleasesItsLocksAtOnce: a transaction whose statement
// is cancelled while it waits on a lock ends at the server at once,
// though its connection, the shared one, stays up. A holds k; B holds j
// and waits on k; once B's context is cancelled, a third transaction
// locks j within 100ms while A still holds k. Autocommit reads on the
// same connection answer throughout.
func TestCancelledTxnReleasesItsLocksAtOnce(t *testing.T) {
	store := sqlstore.New(sqlstore.WithLockTimeout(10 * time.Second))
	defer store.Close()
	seed(store, "t", "k", 1)
	seed(store, "t", "j", 2)
	srv := NewServer(storeapi.Local(store))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := Dial(srv.Addr())
	defer client.Close()
	ctx := context.Background()

	// Autocommit reads, each bounded, run beside the transactions.
	stop := make(chan struct{})
	reads := make(chan error, 1)
	go func() {
		for n := 0; ; n++ {
			select {
			case <-stop:
				reads <- nil
				return
			default:
			}
			rctx, cancel := context.WithTimeout(ctx, time.Second)
			_, err := client.AutoGet(rctx, "t", []string{"k", "j"}[n%2])
			cancel()
			if err != nil {
				reads <- err
				return
			}
		}
	}()

	begin := func() storeapi.Txn {
		t.Helper()
		txn, err := client.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return txn
	}
	a := begin()
	defer a.Abort(ctx)
	if _, err := a.GetForUpdate(ctx, "t", "k"); err != nil {
		t.Fatal(err)
	}
	b := begin()
	if _, err := b.GetForUpdate(ctx, "t", "j"); err != nil {
		t.Fatal(err)
	}
	bctx, cancelB := context.WithCancel(ctx)
	waited := make(chan error, 1)
	go func() {
		_, err := b.GetForUpdate(bctx, "t", "k")
		waited <- err
	}()
	// Give B's request time to reach the lock on k.
	time.Sleep(50 * time.Millisecond)
	select {
	case err := <-waited:
		t.Fatalf("B's wait on k returned while A holds k: %v", err)
	default:
	}
	cancelB()
	if err := <-waited; !errors.Is(err, context.Canceled) {
		t.Fatalf("B's cancelled wait = %v, want context.Canceled", err)
	}

	c := begin()
	defer c.Abort(ctx)
	cctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	if _, err := c.GetForUpdate(cctx, "t", "j"); err != nil {
		t.Fatalf("j still locked after B was cancelled: %v", err)
	}
	// A still holds k.
	dctx, cancelD := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancelD()
	if _, err := c.GetForUpdate(dctx, "t", "k"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("k while A holds it: %v, want a lock wait cut by the deadline", err)
	}
	close(stop)
	if err := <-reads; err != nil {
		t.Fatalf("an autocommit read beside the transactions: %v", err)
	}
	if n := client.NumConns(); n != 1 {
		t.Errorf("%d connections open, want the shared one", n)
	}
}

// TestCancelledBeginLeavesNoTransaction: a Begin whose caller gives up
// while it crosses a slow hop returns at once, and the transaction the
// server began for it is aborted once its reply lands.
func TestCancelledBeginLeavesNoTransaction(t *testing.T) {
	const oneWay = 50 * time.Millisecond
	store := sqlstore.New()
	defer store.Close()
	srv := NewServer(storeapi.Local(store))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy := latency.NewProxy(srv.Addr(), oneWay)
	if err := proxy.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	client := Dial(proxy.Addr())
	defer client.Close()
	if err := client.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), oneWay/2)
	defer cancel()
	start := time.Now()
	if _, err := client.Begin(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Begin = %v, want DeadlineExceeded", err)
	}
	if took := time.Since(start); took >= 2*oneWay {
		t.Errorf("a Begin past its deadline took %v, a whole round trip", took)
	}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st := store.Stats()
		if st.Begins == 1 && st.Aborts == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("store: %d begun, %d aborted; want the abandoned Begin's transaction aborted", st.Begins, st.Aborts)
		}
	}
}

// TestMultiplexedAutoGetsShareRoundTrip is the tentpole's acceptance
// check: N concurrent autocommit reads through the 8ms delay proxy must
// complete in ~1 round-trip wall time over the shared connection — at
// seed each would have paid its own round trip (or connection).
func TestMultiplexedAutoGetsShareRoundTrip(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	const rows = 16
	for i := 0; i < rows; i++ {
		seed(store, "t", string(rune('a'+i)), int64(i))
	}
	srv := NewServer(storeapi.Local(store))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	proxy := latency.NewProxy(srv.Addr(), 8*time.Millisecond)
	if err := proxy.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	client := Dial(proxy.Addr())
	defer client.Close()
	ctx := context.Background()

	// Warm the connection (dial) so the measured window is pure
	// round-trip time.
	if err := client.Ping(ctx); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, rows)
	for i := 0; i < rows; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := client.AutoGet(ctx, "t", string(rune('a'+i))); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	// One round trip through the proxy costs 2×8ms = 16ms. Serialized,
	// 16 reads would cost ≥256ms; multiplexed they overlap on the wire.
	// Allow generous slack for scheduling: well under half the serial
	// floor still proves pipelining.
	if elapsed > 120*time.Millisecond {
		t.Fatalf("16 concurrent AutoGets took %v through an 8ms proxy — not multiplexed (serial floor ≈ 256ms)", elapsed)
	}
	if d := client.WireStats().Dials; d != 1 {
		t.Fatalf("used %d connections, want the one shared conn", d)
	}
}
