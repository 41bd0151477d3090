package dbwire

import (
	"context"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
	"edgeejb/internal/trade"
	"edgeejb/internal/wire"
)

// startServer starts a dbwire server over a fresh store.
func startServer(t *testing.T) (*sqlstore.Store, *Server) {
	t.Helper()
	store := sqlstore.New()
	srv := NewServer(storeapi.Local(store))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})
	return store, srv
}

// TestServerSurvivesGarbageFrames: raw garbage on the wire must close
// that connection cleanly without disturbing other clients.
func TestServerSurvivesGarbageFrames(t *testing.T) {
	store, srv := startServer(t)
	seed(store, "t", "1", 1)
	client := Dial(srv.Addr())
	t.Cleanup(func() { _ = client.Close() })
	ctx := context.Background()

	// Blast garbage at the server on raw connections. "GET / HTTP/1.1"
	// parses as an absurd length prefix; the zero payload parses as a
	// zero-length frame; both are protocol violations.
	for _, payload := range [][]byte{
		[]byte("GET / HTTP/1.1\r\n\r\n"),
		{0x00, 0x01, 0x02, 0x03, 0xff, 0xfe},
		make([]byte, 4096), // zeros
	} {
		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		_, _ = raw.Write(payload)
		_ = raw.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 64)
		_, _ = raw.Read(buf) // server should close; any response is fine
		_ = raw.Close()
	}

	// A well-behaved client still works.
	if err := client.Ping(ctx); err != nil {
		t.Fatalf("server died after garbage: %v", err)
	}
	if _, err := client.AutoGet(ctx, "t", "1"); err != nil {
		t.Fatalf("server state corrupted: %v", err)
	}
}

// TestServerRejectsUnknownOp: a syntactically valid request with a bogus
// op code gets a BadRequest response, and the connection stays usable.
// The retired grouped apply's code, reserved after OpBatch, is one.
func TestServerRejectsUnknownOp(t *testing.T) {
	store, srv := startServer(t)
	seed(store, "t", "1", 1)
	ctx := context.Background()

	// A raw wire client speaks correct framing but sends an op the
	// protocol dispatch does not know.
	w := wire.NewClient(srv.Addr())
	defer w.Close()

	for _, op := range []OpCode{OpCode(200), OpBatch + 1} {
		resp := new(Response)
		if err := w.Call(ctx, &Request{Op: op}, resp); err != nil {
			t.Fatal(err)
		}
		if resp.Code != CodeBadRequest {
			t.Fatalf("%s: code = %v, want BadRequest", op, resp.Code)
		}
	}

	// Same client (and its connection) keeps working for valid requests.
	resp2 := new(Response)
	if err := w.Call(ctx, &Request{Op: OpPing}, resp2); err != nil {
		t.Fatal(err)
	}
	if resp2.Code != CodeOK {
		t.Fatalf("ping after bad request: %v", resp2.Code)
	}
}

// TestUnknownTransactionRejected: operating on a transaction id that was
// never begun (or was already finished) is a BadRequest, not a crash.
func TestUnknownTransactionRejected(t *testing.T) {
	store, srv := startServer(t)
	seed(store, "t", "1", 1)
	ctx := context.Background()

	w := wire.NewClient(srv.Addr())
	defer w.Close()

	for _, op := range []OpCode{OpGet, OpPut, OpCommit, OpAbort, OpQuery} {
		resp := new(Response)
		if err := w.Call(ctx, &Request{Op: op, Tx: 424242, Table: "t", ID: "1"}, resp); err != nil {
			t.Fatal(err)
		}
		if resp.Code != CodeBadRequest {
			t.Errorf("%s on unknown tx: code %v, want BadRequest", op, resp.Code)
		}
	}
}

// TestBatchCarriesOnlyItsOwnStatements: an OpBatch runs statements of
// the one transaction it names, Commit or Abort last if at all. A batch
// holding anything else — another open transaction's statement, an op
// that is no statement, a statement after the commit — is refused
// before any of it runs, so its leading Put never reaches the store.
func TestBatchCarriesOnlyItsOwnStatements(t *testing.T) {
	put := func(id string, tx uint64) Request {
		return Request{Op: OpPut, Tx: tx, Mem: memento.Memento{
			Key: memento.Key{Table: "t", ID: id}, Fields: memento.Fields{"v": memento.Int(99)},
		}}
	}
	apply := Request{Op: OpApplyCommitSet, Set: memento.CommitSet{Writes: []memento.Memento{{
		Key: memento.Key{Table: "t", ID: "2"}, Version: 1, Fields: memento.Fields{"v": memento.Int(99)},
	}}}}
	cases := map[string]func(other uint64) []Request{
		"another transaction's statement": func(other uint64) []Request { return []Request{put("1", 0), put("2", other)} },
		"an autocommit op":                func(uint64) []Request { return []Request{put("1", 0), apply} },
		"a begin":                         func(uint64) []Request { return []Request{put("1", 0), {Op: OpBegin}} },
		"a statement after the commit":    func(uint64) []Request { return []Request{put("1", 0), {Op: OpCommit}, put("2", 0)} },
	}
	for name, subs := range cases {
		t.Run(name, func(t *testing.T) {
			store, srv := startServer(t)
			seed(store, "t", "1", 1)
			seed(store, "t", "2", 2)
			ctx := context.Background()
			w := wire.NewClient(srv.Addr())
			defer w.Close()
			call := func(req *Request) *Response {
				t.Helper()
				resp := new(Response)
				if err := w.Call(ctx, req, resp); err != nil {
					t.Fatal(err)
				}
				return resp
			}
			own, other := call(&Request{Op: OpBegin}).Tx, call(&Request{Op: OpBegin}).Tx
			if resp := call(&Request{Op: OpBatch, Tx: own, Batch: subs(other)}); resp.Code != CodeBadRequest || len(resp.Batch) != 0 {
				t.Errorf("batch answered %v with %d results, want BadRequest and none", resp.Code, len(resp.Batch))
			}
			call(&Request{Op: OpCommit, Tx: own})
			call(&Request{Op: OpCommit, Tx: other})
			// Each seed was its own commit: row 1 at v1, row 2 at v2.
			for i, id := range []string{"1", "2"} {
				if v, _ := store.CurrentVersion(memento.Key{Table: "t", ID: id}); v != uint64(i+1) {
					t.Errorf("row %s at version %d after a refused batch, want its seed's %d", id, v, i+1)
				}
			}
		})
	}
}

// cutProxy forwards TCP connections to target. A connection accepted
// while the proxy is armed is cut — both legs closed, nothing forwarded
// — the first time its client sends, so its first call dies mid-flight.
type cutProxy struct {
	ln     net.Listener
	target string
	armed  atomic.Bool
}

func startCutProxy(t *testing.T, target string) *cutProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &cutProxy{ln: ln, target: target}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s, err := net.Dial("tcp", target)
			if err != nil {
				_ = c.Close()
				continue
			}
			cut := p.armed.Swap(false)
			go func() { _, _ = io.Copy(c, s); _ = c.Close() }()
			go func() {
				defer c.Close()
				defer s.Close()
				buf := make([]byte, 4096)
				for {
					n, err := c.Read(buf)
					if err != nil || cut {
						return
					}
					if _, err := s.Write(buf[:n]); err != nil {
						return
					}
				}
			}()
		}
	}()
	return p
}

// armNext arms the next connection the proxy accepts.
func (p *cutProxy) armNext() { p.armed.Store(true) }

// TestSubscribeRetryKeepsItsOwnChannel: a Subscribe handshake that dies
// mid-call on its freshly dialled stream is retried on another, while
// the dead stream's teardown is still closing its sink. The channel
// Subscribe returns belongs to the retry alone: it stays open, carries
// notices, and closes exactly once on cancel. Run under -race; the
// retry and the teardown race, so the scenario repeats.
func TestSubscribeRetryKeepsItsOwnChannel(t *testing.T) {
	store, srv := startServer(t)
	seed(store, "t", "1", 1)
	proxy := startCutProxy(t, srv.Addr())
	ctx := context.Background()
	for i := uint64(1); i <= 30; i++ {
		client := Dial(proxy.ln.Addr().String())
		proxy.armNext()

		ch, cancel, err := client.Subscribe(ctx)
		if err != nil {
			t.Fatalf("round %d: subscribe: %v", i, err)
		}
		if r := client.WireStats().Retries; r != 1 {
			t.Fatalf("round %d: %d handshake retries, want 1", i, r)
		}
		// The cut stream's teardown has finished once it is uncounted.
		deadline := time.After(5 * time.Second)
		for client.NumConns() != 1 {
			select {
			case <-deadline:
				t.Fatalf("round %d: %d connections open, want the subscription's alone", i, client.NumConns())
			case <-time.After(time.Millisecond):
			}
		}
		if st := store.Stats(); st.Begins != st.Commits+st.Aborts {
			t.Fatalf("round %d: %d transactions begun, %d ended", i, st.Begins, st.Commits+st.Aborts)
		}
		select {
		case _, ok := <-ch:
			t.Fatalf("round %d: channel read (open=%v) before any commit", i, ok)
		default:
		}
		if _, err := store.ApplyCommitSet(ctx, memento.CommitSet{Writes: []memento.Memento{{
			Key: memento.Key{Table: "t", ID: "1"}, Version: i, Fields: memento.Fields{"v": memento.Int(int64(i))},
		}}}); err != nil {
			t.Fatal(err)
		}
		select {
		case _, ok := <-ch:
			if !ok {
				t.Fatalf("round %d: channel closed, want the commit's notice", i)
			}
		case <-deadline:
			t.Fatalf("round %d: no notice", i)
		}
		cancel()
		select {
		case _, ok := <-ch:
			if ok {
				t.Fatalf("round %d: notice after cancel", i)
			}
		case <-deadline:
			t.Fatalf("round %d: channel not closed after cancel", i)
		}
		_ = client.Close()
	}
}

// TestStaleConnectionRetryAfterServerRestart: the shared client
// connection outlives a server restart; the next call on it, an
// autocommit read or a Begin, must transparently redial instead of
// failing.
func TestStaleConnectionRetryAfterServerRestart(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	store.Seed((&trade.Quote{Symbol: "s-1", Price: 10}).ToMemento())

	srv := NewServer(storeapi.Local(store))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	client := Dial(addr)
	defer client.Close()
	ctx := context.Background()

	if _, err := client.AutoGet(ctx, trade.TableQuote, "s-1"); err != nil {
		t.Fatal(err)
	}
	restart := func() {
		t.Helper()
		srv.Close()
		srv = NewServer(storeapi.Local(store))
		if err := srv.Start(addr); err != nil {
			t.Fatal(err)
		}
	}
	restart()
	defer func() { srv.Close() }()

	// The shared connection is stale; the client must retry on a fresh
	// dial without surfacing an error.
	if _, err := client.AutoGet(ctx, trade.TableQuote, "s-1"); err != nil {
		t.Fatalf("stale shared connection not retried: %v", err)
	}
	// Begin must also survive a stale shared connection.
	restart()
	txn, err := client.Begin(ctx)
	if err != nil {
		t.Fatalf("begin after restart: %v", err)
	}
	if err := txn.Abort(ctx); err != nil {
		t.Fatal(err)
	}
}
