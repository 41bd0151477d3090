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

// TestTxnCallHonorsDeadline: deadlines propagate on pinned transaction
// streams too, not just one-shot calls.
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
