package dbwire

import (
	"context"
	"sync"

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
		return &connHandler{backend: backend, txs: make(map[uint64]storeapi.Txn)}
	})
	return s
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and
// serves connections in the background until Close.
func (s *Server) Start(addr string) error { return s.inner.Start(addr) }

// Addr returns the server's listen address. It panics if Start has not
// been called.
func (s *Server) Addr() string { return s.inner.Addr() }

// WireStats returns the server-side transport counters.
func (s *Server) WireStats() wire.Stats { return s.inner.Stats() }

// Close drains the server: stop accepting, finish in-flight requests
// (bounded), then tear down every connection, aborting any transactions
// still open on them. It does not close the wrapped datastore handle.
func (s *Server) Close() { s.inner.Close() }

// connHandler holds one connection's protocol state. Transactions begun
// on a connection belong to it; if the connection drops they are
// aborted, mirroring a JDBC connection's session semantics. Requests on
// one connection may execute concurrently (the client multiplexes), so
// the transaction table is locked.
type connHandler struct {
	backend storeapi.Conn

	mu  sync.Mutex
	txs map[uint64]storeapi.Txn

	pushers sync.WaitGroup
}

func (h *connHandler) NewRequest() any { return new(Request) }

func (h *connHandler) Handle(ctx context.Context, sess *wire.Session, id uint64, req any) any {
	r := req.(*Request)
	if r.Op == OpSubscribe {
		return h.subscribe(ctx, sess, id)
	}
	return h.handle(ctx, r)
}

// batch executes an OpBatch's sub-requests sequentially, stopping at
// the first failure — the exact semantics of the statements arriving
// one frame at a time, minus the per-statement round trips. Sub-request
// results come back positionally; a truncated result slice tells the
// client the remaining statements never ran.
func (h *connHandler) batch(ctx context.Context, req *Request) *Response {
	out := &Response{Code: CodeOK, Batch: make([]Response, 0, len(req.Batch))}
	for i := range req.Batch {
		sub := &req.Batch[i]
		switch sub.Op {
		case OpBegin, OpSubscribe, OpBatch, OpApplyCommitSets,
			OpPrepare, OpCommitPrepared, OpAbortPrepared:
			return &Response{Code: CodeBadRequest, Msg: "op " + sub.Op.String() + " not allowed in a batch"}
		}
		if sub.Tx == 0 {
			sub.Tx = req.Tx
		}
		r := h.handle(ctx, sub)
		out.Batch = append(out.Batch, *r)
		if r.Code != CodeOK {
			break
		}
	}
	return out
}

// Close aborts the connection's open transactions and reaps its push
// goroutines. The wire server calls it after the last in-flight Handle
// has returned and the session context is cancelled.
func (h *connHandler) Close() {
	h.pushers.Wait()
	h.mu.Lock()
	txs := h.txs
	h.txs = make(map[uint64]storeapi.Txn)
	h.mu.Unlock()
	ctx := context.Background()
	for _, tx := range txs {
		_ = tx.Abort(ctx)
	}
}

// subscribe switches the connection into push mode: every commit notice
// is forwarded until the client hangs up or the server drains.
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

// lookup resolves a transaction handle; remove also unregisters it
// (commit/abort ends the pin).
func (h *connHandler) lookup(id uint64, remove bool) (storeapi.Txn, *Response) {
	h.mu.Lock()
	defer h.mu.Unlock()
	tx, ok := h.txs[id]
	if !ok {
		return nil, &Response{Code: CodeBadRequest, Msg: "unknown transaction"}
	}
	if remove {
		delete(h.txs, id)
	}
	return tx, nil
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
		h.txs[tx.ID()] = tx
		h.mu.Unlock()
		return &Response{Code: CodeOK, Tx: tx.ID()}

	case OpGet, OpGetForUpdate:
		tx, errResp := h.lookup(req.Tx, false)
		if errResp != nil {
			return errResp
		}
		get := tx.Get
		if req.Op == OpGetForUpdate {
			get = tx.GetForUpdate
		}
		res, err := get(ctx, req.Table, req.ID)
		if err != nil {
			return fail(err)
		}
		return &Response{Code: CodeOK, Mem: res.Mem, FP: &res.FP}

	case OpPut, OpInsert, OpCheckedPut:
		tx, errResp := h.lookup(req.Tx, false)
		if errResp != nil {
			return errResp
		}
		var err error
		switch req.Op {
		case OpPut:
			err = tx.Put(ctx, req.Mem)
		case OpInsert:
			err = tx.Insert(ctx, req.Mem)
		default:
			err = tx.CheckedPut(ctx, req.Mem)
		}
		if err != nil {
			return fail(err)
		}
		return &Response{Code: CodeOK}

	case OpDelete:
		tx, errResp := h.lookup(req.Tx, false)
		if errResp != nil {
			return errResp
		}
		if err := tx.Delete(ctx, req.Table, req.ID); err != nil {
			return fail(err)
		}
		return &Response{Code: CodeOK}

	case OpCheckedDelete:
		tx, errResp := h.lookup(req.Tx, false)
		if errResp != nil {
			return errResp
		}
		if err := tx.CheckedDelete(ctx, req.Key, req.Version); err != nil {
			return fail(err)
		}
		return &Response{Code: CodeOK}

	case OpCheckVersion:
		tx, errResp := h.lookup(req.Tx, false)
		if errResp != nil {
			return errResp
		}
		if err := tx.CheckVersion(ctx, req.Key, req.Version); err != nil {
			return fail(err)
		}
		return &Response{Code: CodeOK}

	case OpQuery:
		tx, errResp := h.lookup(req.Tx, false)
		if errResp != nil {
			return errResp
		}
		res, err := tx.Query(ctx, req.Query)
		if err != nil {
			return fail(err)
		}
		return &Response{Code: CodeOK, Mems: res.Mems, FP: &res.FP}

	case OpCommit:
		tx, errResp := h.lookup(req.Tx, true)
		if errResp != nil {
			return errResp
		}
		if err := tx.Commit(ctx); err != nil {
			return fail(err)
		}
		return &Response{Code: CodeOK, Tx: req.Tx}

	case OpAbort:
		tx, errResp := h.lookup(req.Tx, true)
		if errResp != nil {
			return errResp
		}
		if err := tx.Abort(ctx); err != nil {
			return fail(err)
		}
		return &Response{Code: CodeOK}

	case OpApplyCommitSet:
		res, err := h.backend.ApplyCommitSet(ctx, req.Set)
		if err != nil {
			return fail(err)
		}
		return &Response{Code: CodeOK, Tx: res.TxID, NewVersions: res.NewVersions}

	case OpApplyCommitSets:
		results, err := h.backend.ApplyCommitSets(ctx, req.Sets)
		if err != nil {
			return fail(err)
		}
		out := &Response{Code: CodeOK, Batch: make([]Response, len(results))}
		for i := range results {
			if results[i].Err != nil {
				out.Batch[i] = *errResponse(results[i].Err)
				continue
			}
			out.Batch[i] = Response{Code: CodeOK, Tx: results[i].Res.TxID, NewVersions: results[i].Res.NewVersions}
		}
		return out

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
		return &Response{Code: CodeOK, Tx: res.TxID, NewVersions: res.NewVersions}

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
		return &Response{Code: CodeOK, Mem: res.Mem, FP: &res.FP}

	case OpAutoQuery:
		res, err := h.backend.AutoQuery(ctx, req.Query)
		if err != nil {
			return fail(err)
		}
		return &Response{Code: CodeOK, Mems: res.Mems, FP: &res.FP}

	default:
		return &Response{Code: CodeBadRequest, Msg: "unknown op " + req.Op.String()}
	}
}
