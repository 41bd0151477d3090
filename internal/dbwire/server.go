package dbwire

import (
	"context"
	"fmt"
	"sync"

	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
	"edgeejb/internal/wire"
)

// Server exposes any storeapi.Conn over the wire protocol. Serving a
// local store (storeapi.Local) yields the paper's "database server";
// serving a composed Conn yields middle tiers such as the back-end
// server of the split-servers configuration (see package backend).
//
// Framing, accept loops, and graceful drain live in the shared
// transport (package wire); this file is only the protocol dispatch.
type Server struct {
	inner *wire.Server
}

// NewServer wraps a datastore handle. Call Start to begin listening.
func NewServer(backend storeapi.Conn) *Server {
	s := &Server{}
	s.inner = wire.NewServer(func() wire.ConnHandler {
		return &connHandler{backend: backend, txs: make(map[uint64]*txEntry)}
	})
	return s
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and
// serves connections in the background until Close.
func (s *Server) Start(addr string) error { return s.inner.Start(addr) }

// Addr returns the server's listen address. It panics if Start has not
// been called.
func (s *Server) Addr() string { return s.inner.Addr() }

// Close drains the server: stop accepting, finish in-flight requests
// (bounded), then tear down every connection, aborting any transactions
// still open on them. It does not close the wrapped datastore handle.
func (s *Server) Close() { s.inner.Close() }

// connHandler holds one connection's protocol state. Transactions begun
// on a connection belong to it; if the connection drops they are
// aborted, mirroring a JDBC connection's session semantics. Requests on
// one connection execute concurrently (the client multiplexes every
// call over it), so the transaction table is locked, and each
// transaction runs its statements one at a time (txEntry).
type connHandler struct {
	backend storeapi.Conn

	mu  sync.Mutex
	txs map[uint64]*txEntry

	pushers sync.WaitGroup
}

// txEntry is one open transaction of a connection. Its statements run
// one at a time under run. cancel cancels the statement in flight, so
// an Abort never waits behind a statement parked on a lock; connHandler.mu
// guards it.
type txEntry struct {
	tx     storeapi.Txn
	run    sync.Mutex
	cancel context.CancelFunc
}

func (h *connHandler) NewRequest() any { return new(Request) }

func (h *connHandler) Handle(ctx context.Context, sess *wire.Session, id uint64, req any) any {
	r := req.(*Request)
	ctx = sqlstore.OriginContext(ctx, r.Origin)
	if r.Op == OpSubscribe {
		return h.subscribe(ctx, sess, id)
	}
	return h.handle(ctx, r)
}

// batch runs an OpBatch: the statements of the transaction it names,
// executed in order and stopping at the first failure — the exact
// semantics of the statements arriving one frame at a time, minus the
// per-statement round trips. Sub-request results come back
// positionally; a truncated result slice tells the client the remaining
// statements never ran. A batch carrying anything but statements of its
// own transaction, or a statement after its Commit or Abort, is refused
// before any of it runs.
func (h *connHandler) batch(ctx context.Context, req *Request) *Response {
	for i := range req.Batch {
		sub := &req.Batch[i]
		st, ok := sub.stmt()
		if !ok || (sub.Tx != 0 && sub.Tx != req.Tx) || (st.Ends() && i < len(req.Batch)-1) {
			return &Response{Code: CodeBadRequest, Msg: fmt.Sprintf("batch sub-request %d (%s) is not a statement of transaction %d", i, sub.Op, req.Tx)}
		}
	}
	return h.inTx(ctx, req.Tx, func(ctx context.Context, tx storeapi.Txn) (*Response, bool) {
		out := &Response{Code: CodeOK, Batch: make([]Response, 0, len(req.Batch))}
		var st storeapi.Stmt
		for i := range req.Batch {
			st, _ = req.Batch[i].stmt()
			r := exec(ctx, tx, st)
			out.Batch = append(out.Batch, r)
			if r.Code != CodeOK {
				break
			}
		}
		// A Commit or Abort that ran ended the transaction, whatever
		// its outcome.
		return out, st.Ends()
	})
}

// Close aborts the connection's open transactions and reaps its push
// goroutines. The wire server calls it after the last in-flight Handle
// has returned and the session context is cancelled.
func (h *connHandler) Close() {
	h.pushers.Wait()
	h.mu.Lock()
	txs := h.txs
	h.txs = make(map[uint64]*txEntry)
	h.mu.Unlock()
	ctx := context.Background()
	for _, e := range txs {
		_ = e.tx.Abort(ctx)
	}
}

// subscribe switches the connection into push mode: every commit notice
// is forwarded, as the store built it, until the client hangs up or the
// server drains. The context carries the subscriber's origin on, so a
// relaying back-end asks its own source to skip that origin's commits.
func (h *connHandler) subscribe(ctx context.Context, sess *wire.Session, id uint64) *Response {
	ch, cancel, err := h.backend.Subscribe(ctx)
	if err != nil {
		return errResponse(err)
	}
	h.pushers.Add(1)
	go func() {
		defer h.pushers.Done()
		defer cancel()
		for {
			select {
			case n, ok := <-ch:
				if !ok {
					// The upstream notice source died (e.g. the database
					// behind a back-end server restarted). Sever this
					// connection too: a silent stop would leave the
					// subscriber trusting a stream that will never
					// deliver again, serving stale cache entries forever.
					// The hangup makes the edge clear its cache and
					// resubscribe.
					sess.Hangup()
					return
				}
				if err := sess.Push(id, &Response{Code: CodeOK, Notice: n}); err != nil {
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	return &Response{Code: CodeOK}
}

// unknownTx answers a request naming a transaction the connection does
// not hold: never begun on it, or already ended.
func unknownTx() *Response { return &Response{Code: CodeBadRequest, Msg: "unknown transaction"} }

// inTx runs fn, statements of transaction id, once the transaction's
// statement in flight has returned, under a context that an Abort of
// the transaction cancels. fn reports whether it ended the transaction,
// which then leaves the table.
func (h *connHandler) inTx(ctx context.Context, id uint64, fn func(context.Context, storeapi.Txn) (*Response, bool)) *Response {
	h.mu.Lock()
	e := h.txs[id]
	h.mu.Unlock()
	if e == nil {
		return unknownTx()
	}
	e.run.Lock()
	defer e.run.Unlock()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	h.mu.Lock()
	if h.txs[id] != e {
		// An Abort took the transaction while this waited its turn.
		h.mu.Unlock()
		return unknownTx()
	}
	e.cancel = cancel
	h.mu.Unlock()
	resp, ended := fn(ctx, e.tx)
	h.mu.Lock()
	e.cancel = nil
	if ended {
		delete(h.txs, id)
	}
	h.mu.Unlock()
	return resp
}

// abort ends transaction id. It takes the transaction out of the table
// and cancels its statement in flight at once, so a lock wait ends
// there and no statement queued behind it runs, then aborts it once
// that statement has returned.
func (h *connHandler) abort(ctx context.Context, id uint64) *Response {
	h.mu.Lock()
	e := h.txs[id]
	if e != nil {
		delete(h.txs, id)
		if e.cancel != nil {
			e.cancel()
		}
	}
	h.mu.Unlock()
	if e == nil {
		return unknownTx()
	}
	e.run.Lock()
	defer e.run.Unlock()
	r := exec(ctx, e.tx, storeapi.Stmt{Kind: storeapi.StmtAbort})
	return &r
}

// exec runs one statement through storeapi's one dispatch and answers
// it.
func exec(ctx context.Context, tx storeapi.Txn, st storeapi.Stmt) Response {
	r := storeapi.ExecStmt(ctx, tx, st)
	if r.Err != nil {
		return *errResponse(r.Err)
	}
	switch st.Kind {
	case storeapi.StmtGet, storeapi.StmtGetForUpdate:
		return Response{Code: CodeOK, Mem: r.Get.Mem}
	case storeapi.StmtQuery:
		return Response{Code: CodeOK, Mems: r.Q.Mems}
	case storeapi.StmtCommit:
		return Response{Code: CodeOK, Seq: r.Seq}
	}
	return Response{Code: CodeOK}
}

func (h *connHandler) handle(ctx context.Context, req *Request) *Response {
	fail := errResponse

	switch req.Op {
	case OpPing:
		return &Response{Code: CodeOK}

	case OpBegin:
		tx, err := h.backend.Begin(ctx)
		if err != nil {
			return fail(err)
		}
		h.mu.Lock()
		h.txs[tx.ID()] = &txEntry{tx: tx}
		h.mu.Unlock()
		return &Response{Code: CodeOK, Tx: tx.ID()}

	case OpApplyCommitSet:
		res, err := h.backend.ApplyCommitSet(ctx, req.Set)
		if err != nil {
			return fail(err)
		}
		return &Response{Code: CodeOK, Seq: res.Seq}

	case OpBatch:
		return h.batch(ctx, req)

	// The 2PC participant ops require the wrapped Conn to expose
	// prepare support; for a Conn that doesn't (a wrapper) the op does
	// not exist, and the coordinator reads the refusal as a no vote.
	case OpPrepare:
		p, ok := h.backend.(storeapi.Preparer)
		if !ok {
			return &Response{Code: CodeBadRequest, Msg: "unknown op " + req.Op.String()}
		}
		if err := p.Prepare(ctx, req.Gid, req.Set); err != nil {
			return fail(err)
		}
		return &Response{Code: CodeOK}

	case OpCommitPrepared:
		p, ok := h.backend.(storeapi.Preparer)
		if !ok {
			return &Response{Code: CodeBadRequest, Msg: "unknown op " + req.Op.String()}
		}
		res, err := p.CommitPrepared(ctx, req.Gid)
		if err != nil {
			return fail(err)
		}
		return &Response{Code: CodeOK, Seq: res.Seq}

	case OpAbortPrepared:
		p, ok := h.backend.(storeapi.Preparer)
		if !ok {
			return &Response{Code: CodeBadRequest, Msg: "unknown op " + req.Op.String()}
		}
		if err := p.AbortPrepared(ctx, req.Gid); err != nil {
			return fail(err)
		}
		return &Response{Code: CodeOK}

	case OpAutoGet:
		res, err := h.backend.AutoGet(ctx, req.Table, req.ID)
		if err != nil {
			return fail(err)
		}
		return &Response{Code: CodeOK, Mem: res.Mem}

	case OpAutoQuery:
		res, err := h.backend.AutoQuery(ctx, req.Query)
		if err != nil {
			return fail(err)
		}
		return &Response{Code: CodeOK, Mems: res.Mems}

	default:
		st, ok := req.stmt()
		if !ok {
			return &Response{Code: CodeBadRequest, Msg: "unknown op " + req.Op.String()}
		}
		if st.Kind == storeapi.StmtAbort {
			return h.abort(ctx, req.Tx)
		}
		return h.inTx(ctx, req.Tx, func(ctx context.Context, tx storeapi.Txn) (*Response, bool) {
			r := exec(ctx, tx, st)
			return &r, st.Ends()
		})
	}
}
