package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testReq/testResp exercise the transport without any protocol on top.
// They encode themselves, as the product's bodies do.
type testReq struct {
	Op      string
	Payload string
	N       int
}

func (r *testReq) WireLabel() string { return r.Op }

func (r *testReq) AppendWire(dst []byte, _ *Names) []byte {
	dst = AppendString(dst, r.Op)
	dst = AppendString(dst, r.Payload)
	return binary.AppendVarint(dst, int64(r.N))
}

func (r *testReq) ReadWire(data []byte, _ *Names) error {
	rd := NewReader(data, nil)
	r.Op, r.Payload, r.N = rd.Str(), rd.Str(), int(rd.Varint())
	return rd.Err()
}

type testResp struct {
	Payload string
	N       int
}

func (r *testResp) AppendWire(dst []byte, _ *Names) []byte {
	dst = AppendString(dst, r.Payload)
	return binary.AppendVarint(dst, int64(r.N))
}

func (r *testResp) ReadWire(data []byte, _ *Names) error {
	rd := NewReader(data, nil)
	r.Payload, r.N = rd.Str(), int(rd.Varint())
	return rd.Err()
}

// testHandler implements a tiny protocol: echo, sleep, and a push
// stream.
type testHandler struct {
	pushers sync.WaitGroup
}

func (h *testHandler) NewRequest() any { return new(testReq) }

func (h *testHandler) Handle(ctx context.Context, sess *Session, id uint64, req any) any {
	r := req.(*testReq)
	switch r.Op {
	case "echo":
		return &testResp{Payload: r.Payload, N: r.N}
	case "sleep":
		select {
		case <-time.After(time.Duration(r.N) * time.Millisecond):
		case <-ctx.Done():
		}
		return &testResp{Payload: "slept", N: r.N}
	case "subscribe":
		h.pushers.Add(1)
		go func() {
			defer h.pushers.Done()
			for i := 1; ; i++ {
				select {
				case <-time.After(time.Millisecond):
					if sess.Push(id, &testResp{Payload: "tick", N: i}) != nil {
						return
					}
				case <-ctx.Done():
					return
				}
			}
		}()
		return &testResp{Payload: "subscribed"}
	default:
		return &testResp{Payload: "unknown op " + r.Op}
	}
}

func (h *testHandler) Close() { h.pushers.Wait() }

func startTestServer(t *testing.T) *Server {
	t.Helper()
	srv := NewServer(func() ConnHandler { return &testHandler{} })
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func TestCallRoundTrip(t *testing.T) {
	srv := startTestServer(t)
	c := NewClient(srv.Addr())
	defer c.Close()
	ctx := context.Background()

	for i := 0; i < 5; i++ {
		resp := new(testResp)
		if err := c.Call(ctx, &testReq{Op: "echo", Payload: "hello", N: i}, resp); err != nil {
			t.Fatal(err)
		}
		if resp.Payload != "hello" || resp.N != i {
			t.Fatalf("echo %d => %+v", i, resp)
		}
	}
	s := c.Stats()
	if s.RoundTrips != 5 || s.Dials != 1 {
		t.Fatalf("stats = %d RTs / %d dials, want 5 / 1", s.RoundTrips, s.Dials)
	}
	if s.Ops["echo"].Count != 5 {
		t.Fatalf("echo op count = %d, want 5", s.Ops["echo"].Count)
	}
	if s.BytesSent == 0 || s.BytesReceived == 0 {
		t.Fatal("byte counters not populated")
	}
	ss := srv.Stats()
	if ss.RoundTrips != 5 {
		t.Fatalf("server RTs = %d, want 5", ss.RoundTrips)
	}
	// Client and server see the same traffic, mirrored.
	if ss.BytesReceived != s.BytesSent || ss.BytesSent != s.BytesReceived {
		t.Fatalf("byte accounting mismatch: client %d/%d vs server %d/%d",
			s.BytesSent, s.BytesReceived, ss.BytesSent, ss.BytesReceived)
	}
}

// TestConcurrentMultiplexStress hammers one client from many goroutines
// with a mix of shared one-shot calls and push streams opened and hung
// up; run under -race this doubles as the transport's synchronization
// audit.
func TestConcurrentMultiplexStress(t *testing.T) {
	srv := startTestServer(t)
	c := NewClient(srv.Addr())
	defer c.Close()
	ctx := context.Background()

	const goroutines = 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if g%4 == 0 {
					// A push stream: its first tick arrives on its own
					// connection, then the stream hangs up.
					ticked := make(chan struct{}, 1)
					st, err := c.OpenStream(ctx, &testReq{Op: "subscribe"}, new(testResp), func(st *Stream) {
						st.OnPush(func() any { return new(testResp) }, func(any) {
							select {
							case ticked <- struct{}{}:
							default:
							}
						}, nil)
					})
					if err != nil {
						errs <- err
						return
					}
					select {
					case <-ticked:
					case <-time.After(5 * time.Second):
						st.Hangup()
						errs <- errors.New("no push on an open stream")
						return
					}
					st.Hangup()
				} else {
					want := fmt.Sprintf("g%d-i%d", g, i)
					resp := new(testResp)
					if err := c.Call(ctx, &testReq{Op: "echo", Payload: want, N: g*1000 + i}, resp); err != nil {
						errs <- err
						return
					}
					if resp.Payload != want || resp.N != g*1000+i {
						errs <- fmt.Errorf("cross-wired response: want %q got %+v", want, resp)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	s := c.Stats()
	if s.Errors != 0 {
		t.Fatalf("stress produced %d transport errors", s.Errors)
	}
	// 30 echo goroutines share the multiplexed conn; each of the 250
	// streams dialled its own.
	if s.Dials != 251 {
		t.Fatalf("%d dials, want the shared connection's and one per stream", s.Dials)
	}
	if n := c.NumConns(); n != 1 {
		t.Fatalf("%d connections open after every stream hung up, want the shared one", n)
	}
}

// TestMultiplexedCallsShareOneRoundTrip: N concurrent calls over the
// shared connection must complete in ~1 round-trip wall time, not N —
// the transport pipelines them by request ID.
func TestMultiplexedCallsShareOneRoundTrip(t *testing.T) {
	srv := startTestServer(t)
	c := NewClient(srv.Addr())
	defer c.Close()
	ctx := context.Background()

	// Each request parks 40ms in the handler. Serialized, 16 requests
	// would take >640ms; multiplexed over ONE connection they overlap.
	warm := new(testResp)
	if err := c.Call(ctx, &testReq{Op: "echo"}, warm); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := new(testResp)
			if err := c.Call(ctx, &testReq{Op: "sleep", N: 40}, resp); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed > 320*time.Millisecond {
		t.Fatalf("16 concurrent 40ms calls took %v — not multiplexed", elapsed)
	}
	if s := c.Stats(); s.Dials != 1 {
		t.Fatalf("dials = %d, want 1 (single shared conn)", s.Dials)
	}
}

// TestConcurrentCallsShareOneConnection: calls in flight together, from
// a cold client, all ride one shared connection: the callers that find
// its dial in flight wait for it instead of dialing their own.
func TestConcurrentCallsShareOneConnection(t *testing.T) {
	srv := startTestServer(t)
	c := NewClient(srv.Addr())
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Call(context.Background(), &testReq{Op: "sleep", N: 20}, new(testResp)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n, d := c.NumConns(), c.Stats().Dials; n != 1 || d != 1 {
		t.Fatalf("%d connections open after %d dials, want 1 and 1", n, d)
	}
}

// idHandler hands every request ID it serves, with its connection's
// number, to serve.
type idHandler struct {
	conn  int
	serve func(conn int, id uint64)
}

func (h *idHandler) NewRequest() any { return new(testReq) }

func (h *idHandler) Handle(_ context.Context, _ *Session, id uint64, req any) any {
	if req.(*testReq).Op == "id" {
		h.serve(h.conn, id)
	}
	return &testResp{}
}

func (h *idHandler) Close() {}

// TestRequestIDsCountPerClient: a stream's opening request takes ID 1,
// then N concurrent calls, half on the shared connection and half on its
// redial, carry the IDs 2..N+1, each exactly once. A counter per
// connection would number each connection's calls from 1 again, and the
// bytes the uvarint IDs take would depend on which connection a call
// happened to take.
func TestRequestIDsCountPerClient(t *testing.T) {
	const n, half = 40, 20
	var (
		mu     sync.Mutex
		conns  int
		seen   = make(map[uint64]int)
		per    = make(map[int]int)
		phases = []chan struct{}{make(chan struct{}), make(chan struct{})}
	)
	// Every reply waits until all the calls of its half have arrived,
	// so they are in flight together.
	serve := func(conn int, id uint64) {
		mu.Lock()
		seen[id]++
		per[conn]++
		phase := phases[(len(seen)-1)/half]
		if len(seen)%half == 0 {
			close(phase)
		}
		mu.Unlock()
		select {
		case <-phase:
		case <-time.After(5 * time.Second):
		}
	}
	srv := NewServer(func() ConnHandler {
		mu.Lock()
		defer mu.Unlock()
		conns++
		return &idHandler{conn: conns, serve: serve}
	})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr())
	defer c.Close()
	ctx := context.Background()
	st, err := c.OpenStream(ctx, &testReq{Op: "open"}, new(testResp), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Hangup()

	calls := func() {
		var wg sync.WaitGroup
		for i := 0; i < half; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := c.Call(ctx, &testReq{Op: "id"}, new(testResp)); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	calls()
	c.mu.Lock()
	shared := c.shared
	c.mu.Unlock()
	shared.teardown(ErrClosed)
	calls()

	mu.Lock()
	defer mu.Unlock()
	if len(per) != 2 || per[2] != half || per[3] != half {
		t.Fatalf("calls per connection = %v, want %d on each of the shared connection (2) and its redial (3)", per, half)
	}
	for id := uint64(2); id <= n+1; id++ {
		if seen[id] != 1 {
			t.Errorf("request ID %d seen %d times, want once", id, seen[id])
		}
	}
	if len(seen) != n {
		t.Errorf("%d distinct IDs, want exactly 2..%d: %v", len(seen), n+1, seen)
	}
}

// TestContextDeadlineOnStalledServer: a call against a server that
// accepts but does not answer must return within the context deadline —
// the satellite regression for ctx being ignored on in-flight I/O. The
// server then answers late: the reply to the abandoned call is dropped
// without touching the caller's response, and the same connection
// serves the next call.
func TestContextDeadlineOnStalledServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	release := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fr, fw := newFrameReader(conn, DefaultMaxFrame), newFrameWriter(conn)
		for {
			if _, err := fr.readFrame(); err != nil {
				return
			}
			h, err := fr.readHeader()
			req := new(testReq)
			if err != nil || fr.decodeBody(req) != nil {
				return
			}
			<-release // stalls the first request only; closed afterwards
			if _, err := fw.writeFrame(&frameHeader{ID: h.ID, Kind: kindResponse}, &testResp{Payload: req.Payload}); err != nil {
				return
			}
		}
	}()

	c := NewClient(ln.Addr().String())
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()

	start := time.Now()
	resp := new(testResp)
	err = c.Call(ctx, &testReq{Op: "echo", Payload: "late"}, resp)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call against stalled server succeeded")
	}
	// The context is the call's only clock: the call returns once its
	// deadline has passed, and says so.
	if ctx.Err() == nil {
		t.Fatalf("returned before its deadline with %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("call hung %v past its 150ms deadline", elapsed)
	}

	// The server writes the late reply before it reads the next
	// request, so the client reader meets it first.
	close(release)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	second := new(testResp)
	if err := c.Call(ctx2, &testReq{Op: "echo", Payload: "second"}, second); err != nil {
		t.Fatalf("connection unusable after a late reply: %v", err)
	}
	if second.Payload != "second" {
		t.Fatalf("second call got %+v", second)
	}
	if resp.Payload != "" {
		t.Fatalf("late reply was decoded into the abandoned caller's response: %+v", resp)
	}
	if d := c.Stats().Dials; d != 1 {
		t.Fatalf("dials = %d, want 1 (the second call must reuse the connection)", d)
	}
}

// TestCancelledCallNeverSeesItsReply: a reply and its caller's
// cancellation land at about the same instant, again and again. Exactly
// one side decides each call: either the reader claims the reply first
// and the call succeeds with it, or the caller abandons the call first
// and its response is never written to, not even by the late reply the
// reader meets afterwards. Either way the connection serves the next
// call. Run it under -race: a reply decoded into an abandoned caller's
// response is a data race as well as a wrong value.
//
// The server starts each caller's clock once the request has arrived.
// A context deadline set by the caller would also bound its request's
// write, and a write the deadline cuts short tears the connection down,
// which on a loaded host can happen before the request is sent at all.
func TestCancelledCallNeverSeesItsReply(t *testing.T) {
	const (
		timeout = 2 * time.Millisecond
		rounds  = 200
	)
	big := strings.Repeat("x", 1<<20)
	cancels := make(chan context.CancelFunc, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// One request at a time, in order: a late reply reaches the
		// client before the reply to the call that follows it.
		fr, fw := newFrameReader(conn, DefaultMaxFrame), newFrameWriter(conn)
		for {
			if _, err := fr.readFrame(); err != nil {
				return
			}
			h, err := fr.readHeader()
			req := new(testReq)
			if err != nil || fr.decodeBody(req) != nil {
				return
			}
			resp := &testResp{Payload: req.Payload, N: req.N}
			if req.Op == "big" {
				time.AfterFunc(timeout, <-cancels)
				time.Sleep(timeout)
				resp.Payload = big
			}
			if _, err := fw.writeFrame(&frameHeader{ID: h.ID, Kind: kindResponse}, resp); err != nil {
				return
			}
		}
	}()

	c := NewClient(ln.Addr().String())
	defer c.Close()
	abandoned := 0
	for i := 0; i < rounds; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels <- cancel
		resp := new(testResp)
		err := c.Call(ctx, &testReq{Op: "big", N: i}, resp)
		cancel()
		failed := err != nil
		if !failed {
			if resp.Payload != big || resp.N != i {
				t.Fatalf("round %d: call succeeded with a wrong reply (N=%d, %d bytes)", i, resp.N, len(resp.Payload))
			}
		} else {
			abandoned++
			if *resp != (testResp{}) {
				t.Fatalf("round %d: failed call (%v) returned with its response written", i, err)
			}
		}

		ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		next := new(testResp)
		err = c.Call(ctx2, &testReq{Op: "echo", Payload: "next", N: i}, next)
		cancel2()
		if err != nil {
			t.Fatalf("round %d: next call on the connection failed: %v", i, err)
		}
		if next.Payload != "next" || next.N != i {
			t.Fatalf("round %d: next call got %+v", i, next)
		}
		// The reader met the late reply before the next call's own, so
		// by now it has dropped it, or written it where it must not.
		if failed && *resp != (testResp{}) {
			t.Fatalf("round %d: late reply (N=%d) was decoded into the abandoned caller's response", i, resp.N)
		}
	}
	if d := c.Stats().Dials; d != 1 {
		t.Fatalf("dials = %d, want 1 (every call must reuse the connection)", d)
	}
	t.Logf("%d of %d calls abandoned", abandoned, rounds)
}

// plainReq/plainResp implement no Body: they take the transport's gob
// fallback, the path bench/ladder.go's echo rung takes.
type plainReq struct {
	Payload string
	SleepMs int
}

type plainResp struct{ Payload string }

// plainHandler answers one request at a time, so replies leave in the
// order the requests arrived.
type plainHandler struct{ mu sync.Mutex }

func (*plainHandler) NewRequest() any { return new(plainReq) }

func (h *plainHandler) Handle(ctx context.Context, _ *Session, _ uint64, req any) any {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := req.(*plainReq)
	select {
	case <-time.After(time.Duration(r.SleepMs) * time.Millisecond):
	case <-ctx.Done():
	}
	return &plainResp{Payload: r.Payload}
}

func (*plainHandler) Close() {}

// TestGobFallbackForPlainStructs pins the one gob path left in the
// transport. The first reply on the connection is to an abandoned call
// and carries the gob stream's type definitions, so the later calls
// decode only if that reply was decoded (into a throwaway) rather than
// dropped.
func TestGobFallbackForPlainStructs(t *testing.T) {
	srv := NewServer(func() ConnHandler { return new(plainHandler) })
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr())
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	abandoned := new(plainResp)
	if err := c.Call(ctx, &plainReq{Payload: "late", SleepMs: 200}, abandoned); err == nil {
		t.Fatal("call outlived its deadline")
	}
	for i := 0; i < 3; i++ {
		resp := new(plainResp)
		if err := c.Call(context.Background(), &plainReq{Payload: "x"}, resp); err != nil {
			t.Fatalf("call %d after an abandoned gob reply: %v", i, err)
		}
		if resp.Payload != "x" {
			t.Fatalf("call %d got %+v", i, resp)
		}
	}
	if abandoned.Payload != "" {
		t.Fatalf("late reply was decoded into the abandoned caller's response: %+v", abandoned)
	}
	if d := c.Stats().Dials; d != 1 {
		t.Fatalf("dials = %d, want 1", d)
	}
}

// TestContextCancelReleasesCall: explicit cancellation (no deadline)
// unblocks an in-flight call, and the connection survives for the
// still-pending slow call whose reply arrives later.
func TestContextCancelReleasesCall(t *testing.T) {
	srv := startTestServer(t)
	c := NewClient(srv.Addr())
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		resp := new(testResp)
		done <- c.Call(ctx, &testReq{Op: "sleep", N: 2000}, resp)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled call returned nil")
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled call did not return")
	}

	// The shared connection must still work: the orphaned reply is
	// discarded when it arrives.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	resp := new(testResp)
	if err := c.Call(ctx2, &testReq{Op: "echo", Payload: "after-cancel"}, resp); err != nil {
		t.Fatalf("conn broken after cancelled call: %v", err)
	}
	if resp.Payload != "after-cancel" {
		t.Fatalf("got %+v", resp)
	}
}

// TestServerGracefulDrain: Close while a request is in flight lets the
// handler finish and the response reach the client.
func TestServerGracefulDrain(t *testing.T) {
	srv := startTestServer(t)
	c := NewClient(srv.Addr())
	defer c.Close()
	ctx := context.Background()

	done := make(chan error, 1)
	resp := new(testResp)
	go func() {
		done <- c.Call(ctx, &testReq{Op: "sleep", N: 200}, resp)
	}()
	time.Sleep(50 * time.Millisecond) // request is in the handler now
	srv.Close()                       // must drain, not sever

	if err := <-done; err != nil {
		t.Fatalf("in-flight call lost during drain: %v", err)
	}
	if resp.Payload != "slept" {
		t.Fatalf("got %+v", resp)
	}
}

// parkingHandler parks a "park" request until release is closed and
// serves every other request as testHandler does.
type parkingHandler struct {
	testHandler
	parked  chan<- struct{}
	release <-chan struct{}
}

func (h *parkingHandler) Handle(ctx context.Context, sess *Session, id uint64, req any) any {
	if r := req.(*testReq); r.Op == "park" {
		h.parked <- struct{}{}
		<-h.release
		return &testResp{Payload: r.Payload}
	}
	return h.testHandler.Handle(ctx, sess, id, req)
}

// TestBlockedHandlerDoesNotStallConnection: a handler parked on a
// channel, as one waiting on a lock or a subscription is, holds up
// neither the reading of its connection nor the requests behind it on
// the shared connection; once released, it is answered too.
func TestBlockedHandlerDoesNotStallConnection(t *testing.T) {
	parked, release := make(chan struct{}, 1), make(chan struct{})
	srv := NewServer(func() ConnHandler { return &parkingHandler{parked: parked, release: release} })
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr())
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var releaseOnce sync.Once
	unpark := func() { releaseOnce.Do(func() { close(release) }) }
	defer unpark() // before srv.Close, which waits for the handler

	first := new(testResp)
	done := make(chan error, 1)
	go func() { done <- c.Call(ctx, &testReq{Op: "park", Payload: "first"}, first) }()
	select {
	case <-parked:
	case <-ctx.Done():
		t.Fatal("the first request never reached its handler")
	}
	for _, want := range []string{"second", "third"} {
		resp := new(testResp)
		if err := c.Call(ctx, &testReq{Op: "echo", Payload: want}, resp); err != nil {
			t.Fatalf("%s request behind a parked handler: %v", want, err)
		}
		if resp.Payload != want {
			t.Fatalf("%s request answered %+v", want, resp)
		}
	}
	select {
	case err := <-done:
		t.Fatalf("the parked request was answered before its release: %v", err)
	default:
	}
	unpark()
	if err := <-done; err != nil {
		t.Fatalf("the released request: %v", err)
	}
	if first.Payload != "first" {
		t.Fatalf("the released request answered %+v", first)
	}
	if d := c.Stats().Dials; d != 1 {
		t.Fatalf("dials = %d, want one shared connection", d)
	}
}

// TestServerCloseLeaksNoGoroutines: the drain path must reap every
// handler/reader/pusher goroutine — the satellite leak-check.
func TestServerCloseLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	for round := 0; round < 3; round++ {
		srv := NewServer(func() ConnHandler { return &testHandler{} })
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		c := NewClient(srv.Addr())
		ctx := context.Background()

		// Mix of finished calls, a push stream, and an in-flight sleeper.
		resp := new(testResp)
		if err := c.Call(ctx, &testReq{Op: "echo"}, resp); err != nil {
			t.Fatal(err)
		}
		got := make(chan struct{}, 1)
		_, err := c.OpenStream(ctx, &testReq{Op: "subscribe"}, new(testResp), func(st *Stream) {
			st.OnPush(func() any { return new(testResp) },
				func(any) {
					select {
					case got <- struct{}{}:
					default:
					}
				}, nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		<-got // pusher is live
		go func() {
			_ = c.Call(ctx, &testReq{Op: "sleep", N: 100}, new(testResp))
		}()
		time.Sleep(20 * time.Millisecond)

		srv.Close()
		c.Close()
	}

	// Goroutine counts are noisy; wait for the count to settle back.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: before=%d now=%d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestPushDelivery: pushes flow to the sink, and tearing down the
// stream fires onClose exactly once.
func TestPushDelivery(t *testing.T) {
	srv := startTestServer(t)
	c := NewClient(srv.Addr())
	defer c.Close()
	ctx := context.Background()

	var ticks atomic.Int64
	var closes atomic.Int64
	st, err := c.OpenStream(ctx, &testReq{Op: "subscribe"}, new(testResp), func(st *Stream) {
		st.OnPush(
			func() any { return new(testResp) },
			func(v any) {
				if v.(*testResp).Payload == "tick" {
					ticks.Add(1)
				}
			},
			func() { closes.Add(1) },
		)
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for ticks.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d pushes arrived", ticks.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c.Stats().Pushes < 3 {
		t.Fatalf("push stat = %d, want >= 3", c.Stats().Pushes)
	}

	st.Hangup()
	st.Hangup() // idempotent
	time.Sleep(50 * time.Millisecond)
	if n := closes.Load(); n != 1 {
		t.Fatalf("onClose fired %d times, want 1", n)
	}
}

// TestSinkCloseWaitsForDeliver: Hangup from another goroutine while the
// reader is inside deliver must not fire onClose until deliver returns,
// and no push is delivered after it: dbwire's subscription closes its
// notice channel in onClose and sends to it in deliver, so an overlap
// is a "send on closed channel" panic.
func TestSinkCloseWaitsForDeliver(t *testing.T) {
	srv := startTestServer(t)
	c := NewClient(srv.Addr())
	defer c.Close()
	ctx := context.Background()

	for round := 0; round < 10; round++ {
		var delivering, closed, overlaps atomic.Int64
		entered := make(chan struct{}, 1)
		st, err := c.OpenStream(ctx, &testReq{Op: "subscribe"}, new(testResp), func(st *Stream) {
			st.OnPush(
				func() any { return new(testResp) },
				func(any) {
					delivering.Store(1)
					select {
					case entered <- struct{}{}:
					default:
					}
					time.Sleep(2 * time.Millisecond)
					overlaps.Add(closed.Load())
					delivering.Store(0)
				},
				func() {
					overlaps.Add(delivering.Load())
					closed.Store(1)
				},
			)
		})
		if err != nil {
			t.Fatal(err)
		}
		<-entered
		st.Hangup()
		if closed.Load() != 1 {
			t.Fatal("Hangup returned before onClose fired")
		}
		if n := overlaps.Load(); n != 0 {
			t.Fatalf("round %d: onClose overlapped a deliver", round)
		}
	}
}

// TestCallProceedsOncePrunedConnFreesItsSlot holds the shared
// connection in the window teardown leaves between marking it closed
// and pruning it: a call that finds it there must dial its replacement
// at once, not wait for the prune or for a dial nobody started.
func TestCallProceedsOncePrunedConnFreesItsSlot(t *testing.T) {
	srv := startTestServer(t)
	c := NewClient(srv.Addr())
	defer c.Close()
	ctx := context.Background()
	if err := c.Call(ctx, &testReq{Op: "echo"}, new(testResp)); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	cn := c.shared
	c.mu.Unlock()
	cn.mu.Lock()
	cn.closed, cn.err = true, ErrClosed
	cn.mu.Unlock()
	defer func() {
		_ = cn.nc.Close()
		c.removeConn(cn)
	}()

	done := make(chan error, 1)
	go func() { done <- c.Call(ctx, &testReq{Op: "echo"}, new(testResp)) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("call beside a closed, unpruned connection: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call waited on a closed connection that was never pruned")
	}
	if d := c.Stats().Dials; d != 2 {
		t.Fatalf("dials = %d, want 2 (the closed connection replaced)", d)
	}
}

func TestClientRejectsAfterClose(t *testing.T) {
	srv := startTestServer(t)
	c := NewClient(srv.Addr())
	if err := c.Call(context.Background(), &testReq{Op: "echo"}, new(testResp)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Call(context.Background(), &testReq{Op: "echo"}, new(testResp)); err == nil {
		t.Fatal("call on closed client succeeded")
	}
	if _, err := c.OpenStream(context.Background(), &testReq{Op: "echo"}, new(testResp), nil); err == nil {
		t.Fatal("stream on closed client succeeded")
	}
}

func TestMergeStats(t *testing.T) {
	a := Stats{RoundTrips: 2, BytesSent: 10, Ops: map[string]OpStats{"x": {Count: 2}}}
	b := Stats{RoundTrips: 3, BytesReceived: 7, Ops: map[string]OpStats{"x": {Count: 1}, "y": {Count: 2}}}
	m := MergeStats(a, b)
	if m.RoundTrips != 5 || m.Bytes() != 17 {
		t.Fatalf("merge totals wrong: %+v", m)
	}
	if m.Ops["x"].Count != 3 || m.Ops["y"].Count != 2 {
		t.Fatalf("merge ops wrong: %+v", m.Ops)
	}
}
