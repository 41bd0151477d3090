package dbwire

import (
	"context"
	"fmt"

	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
	"edgeejb/internal/wire"
)

// Client is the application-server-side driver: the JDBC-driver
// equivalent, built on the shared wire transport. One-shot (autocommit)
// operations multiplex over one shared connection; a transaction pins
// one connection for its lifetime (JDBC session semantics) and every
// statement is one round trip.
//
// Client implements storeapi.Conn.
type Client struct {
	w *wire.Client
}

var _ storeapi.Conn = (*Client)(nil)

// Dial creates a client for the database server at addr. Connections
// are opened lazily. Failed one-shot operations and pinned-stream
// handshakes are retried under the transport's one rule
// (wire.WithRetry); the retries consumed are surfaced in
// WireStats().Retries. The dbwire protocol is safe to
// retry: reads are idempotent and commit sets are duplicate-rejected by
// version validation (see ApplyCommitSet).
func Dial(addr string) *Client {
	return &Client{w: wire.NewClient(addr, wire.WithRetry())}
}

// RoundTrips returns the number of request/response round trips the
// client has performed. Tests use it to verify the per-algorithm access
// counts that drive the paper's latency-sensitivity results. The
// subscription handshake is excluded: it sets up a push stream rather
// than performing a data access.
func (c *Client) RoundTrips() uint64 {
	s := c.w.Stats()
	return s.RoundTrips - s.Ops[OpSubscribe.String()].Count
}

// WireStats returns the transport counters (bytes, round trips and
// per-op counts) for every connection this client has opened.
func (c *Client) WireStats() wire.Stats { return c.w.Stats() }

// NumConns returns the number of TCP connections currently open,
// including pooled idle ones. Leak tests use it to prove that aborted
// and panicked transactions release their pinned connections.
func (c *Client) NumConns() int { return c.w.NumConns() }

// Close tears down every connection, including ones pinned by
// in-flight transactions and subscriptions.
func (c *Client) Close() error { return c.w.Close() }

// oneShot runs a single request/response exchange on the shared
// multiplexed connection (retries live in the transport).
func (c *Client) oneShot(ctx context.Context, req *Request) (*Response, error) {
	resp := new(Response)
	if err := c.w.Call(ctx, req, resp); err != nil {
		return nil, fmt.Errorf("dbwire: %s: %w", req.Op, err)
	}
	return resp, nil
}

// Ping verifies connectivity with one round trip.
func (c *Client) Ping(ctx context.Context) error {
	resp, err := c.oneShot(ctx, &Request{Op: OpPing})
	if err != nil {
		return err
	}
	return decodeErr(resp)
}

// pin opens a pinned stream whose opening exchange is op's handshake,
// carrying the context's origin and whether it asks for keys only.
// prepare, when non-nil, runs on every stream before the handshake is
// sent. The transport retries the handshake under the same rule as a
// one-shot call.
func (c *Client) pin(ctx context.Context, op OpCode, prepare func(*wire.Stream)) (*wire.Stream, *Response, error) {
	resp := new(Response)
	st, err := c.w.OpenStream(ctx, &Request{Op: op, Origin: sqlstore.OriginOf(ctx), KeysOnly: sqlstore.KeysOnly(ctx)}, resp, prepare)
	if err != nil {
		return nil, nil, fmt.Errorf("dbwire: %s: %w", op, err)
	}
	if err := decodeErr(resp); err != nil {
		st.Close()
		return nil, nil, err
	}
	return st, resp, nil
}

// Begin starts a remote transaction, pinning a connection until the
// transaction commits or aborts. Stale pooled connections and transient
// transport failures are retried under the transport's rule.
func (c *Client) Begin(ctx context.Context) (storeapi.Txn, error) {
	st, resp, err := c.pin(ctx, OpBegin, nil)
	if err != nil {
		return nil, err
	}
	t := &remoteTxn{st: st}
	t.StmtTxn = storeapi.StmtTxn{TxID: resp.Tx, Execer: t}
	return t, nil
}

// ApplyCommitSet ships a whole optimistic commit set in ONE round trip —
// the split-servers commit path.
//
// Retry safety: the transport retries a failed exchange (see
// wire.Client), most often on a connection that went bad while idle
// (server restarted under it), where the request never reached a live
// server. In the rare window where a server dies after applying but
// before replying, a retry would re-submit the set; version validation then
// rejects the duplicate with a conflict (every write's expected version
// has already been bumped), so the store is never corrupted — the
// caller sees a spurious conflict and re-runs its transaction, which is
// exactly the optimistic programming model.
func (c *Client) ApplyCommitSet(ctx context.Context, cs memento.CommitSet) (sqlstore.ApplyResult, error) {
	resp, err := c.oneShot(ctx, &Request{Op: OpApplyCommitSet, Set: cs})
	if err != nil {
		return sqlstore.ApplyResult{}, err
	}
	if err := decodeErr(resp); err != nil {
		return sqlstore.ApplyResult{}, err
	}
	return sqlstore.Applied(cs, resp.Seq), nil
}

// ApplyCommitSets ships each set as its own ApplyCommitSet exchange.
func (c *Client) ApplyCommitSets(ctx context.Context, sets []memento.CommitSet) ([]sqlstore.ApplySetResult, error) {
	return storeapi.ApplyEach(ctx, c, sets)
}

// Prepare ships 2PC's first phase in one round trip: the server
// validates the sub-set and holds its locks under gid. A server whose
// datastore handle cannot prepare answers CodeBadRequest, which comes
// back as an error — a no vote, so the coordinator aborts the global
// transaction rather than committing partially.
func (c *Client) Prepare(ctx context.Context, gid string, cs memento.CommitSet) error {
	resp, err := c.oneShot(ctx, &Request{Op: OpPrepare, Gid: gid, Set: cs})
	if err != nil {
		return err
	}
	return decodeErr(resp)
}

// CommitPrepared ships 2PC's commit decision in one round trip. The
// result carries the commit's Seq only: the coordinator holds the
// sub-set (see sqlstore.Store.CommitPrepared).
func (c *Client) CommitPrepared(ctx context.Context, gid string) (sqlstore.ApplyResult, error) {
	resp, err := c.oneShot(ctx, &Request{Op: OpCommitPrepared, Gid: gid})
	if err != nil {
		return sqlstore.ApplyResult{}, err
	}
	if err := decodeErr(resp); err != nil {
		return sqlstore.ApplyResult{}, err
	}
	return sqlstore.ApplyResult{Seq: resp.Seq}, nil
}

// AbortPrepared ships 2PC's abort decision in one round trip.
func (c *Client) AbortPrepared(ctx context.Context, gid string) error {
	resp, err := c.oneShot(ctx, &Request{Op: OpAbortPrepared, Gid: gid})
	if err != nil {
		return err
	}
	return decodeErr(resp)
}

var _ storeapi.Preparer = (*Client)(nil)

// AutoGet reads one row in an autocommit transaction: one round trip.
func (c *Client) AutoGet(ctx context.Context, table, id string) (storeapi.GetResult, error) {
	resp, err := c.oneShot(ctx, &Request{Op: OpAutoGet, Table: table, ID: id})
	if err != nil {
		return storeapi.GetResult{}, err
	}
	if err := decodeErr(resp); err != nil {
		return storeapi.GetResult{}, err
	}
	return storeapi.GetResult{Mem: resp.Mem}, nil
}

// AutoQuery runs one predicate query in an autocommit transaction: one
// round trip.
func (c *Client) AutoQuery(ctx context.Context, q memento.Query) (storeapi.QueryResult, error) {
	resp, err := c.oneShot(ctx, &Request{Op: OpAutoQuery, Query: q})
	if err != nil {
		return storeapi.QueryResult{}, err
	}
	if err := decodeErr(resp); err != nil {
		return storeapi.QueryResult{}, err
	}
	return storeapi.QueryResult{Mems: resp.Mems}, nil
}

// Subscribe opens a pinned connection carrying the server-push
// invalidation stream. The returned channel closes when cancel is called
// or the connection drops. Stale pooled connections and transient
// transport failures are retried under the transport's rule.
//
// A subscriber that falls a full buffer behind loses its stream rather
// than a notice: commit validation re-proves the rows a transaction
// read, not a finder's predicate, so a dropped notice could leave a
// finder-cache entry missing a new row indefinitely. Closing the
// channel makes the subscriber flush and resubscribe, as after any lost
// stream.
func (c *Client) Subscribe(ctx context.Context) (<-chan sqlstore.Notice, func(), error) {
	var ch chan sqlstore.Notice
	// The sink must be in place before the subscribe call: the server
	// may push a notice immediately after the ack. Each attempt's sink
	// owns its own channel: a failed attempt's teardown can still be
	// closing it while the retry prepares the next.
	st, _, err := c.pin(ctx, OpSubscribe, func(st *wire.Stream) {
		own := make(chan sqlstore.Notice, 64)
		ch = own
		overflowed := false
		st.OnPush(
			func() any { return new(Response) },
			func(v any) {
				if overflowed {
					return
				}
				select {
				case own <- v.(*Response).Notice:
				default:
					// deliver runs under the sink lock that the hangup's
					// teardown takes, so the hangup runs on its own.
					overflowed = true
					go st.Hangup()
				}
			},
			func() { close(own) },
		)
	})
	if err != nil {
		return nil, nil, err
	}
	return ch, st.Hangup, nil
}

// remoteTxn drives one server-side transaction over a pinned stream:
// every statement is one round trip (Exec), a batch one for the lot
// (ExecBatch).
type remoteTxn struct {
	storeapi.StmtTxn
	st     *wire.Stream
	done   bool
	broken bool
}

var _ storeapi.BatchTxn = (*remoteTxn)(nil)

func (t *remoteTxn) call(ctx context.Context, req *Request) (*Response, error) {
	if t.done {
		return nil, sqlstore.ErrTxDone
	}
	req.Tx = t.TxID
	resp := new(Response)
	if err := t.st.Call(ctx, req, resp); err != nil {
		// The connection is unusable; the server aborts the transaction
		// when it notices the drop.
		t.broken = true
		t.finish()
		return nil, fmt.Errorf("dbwire: %s: %w", req.Op, err)
	}
	return resp, nil
}

func (t *remoteTxn) finish() {
	if t.done {
		return
	}
	t.done = true
	if t.broken {
		t.st.Hangup()
	} else {
		t.st.Close()
	}
}

// Exec sends one statement and waits for its reply. Commit and Abort
// release the pinned stream whatever the outcome.
func (t *remoteTxn) Exec(ctx context.Context, st storeapi.Stmt) storeapi.StmtResult {
	req, err := requestOf(st)
	if err != nil {
		return storeapi.StmtResult{Err: err}
	}
	resp, err := t.call(ctx, &req)
	if st.Ends() {
		t.finish()
	}
	if err != nil {
		return storeapi.StmtResult{Err: err}
	}
	return stmtResult(st, resp)
}

// stmtResult is a statement reply in storeapi's shape.
func stmtResult(st storeapi.Stmt, resp *Response) storeapi.StmtResult {
	if err := decodeErr(resp); err != nil {
		return storeapi.StmtResult{Err: err}
	}
	var r storeapi.StmtResult
	switch st.Kind {
	case storeapi.StmtGet, storeapi.StmtGetForUpdate:
		r.Get.Mem = resp.Mem
	case storeapi.StmtQuery:
		r.Q.Mems = resp.Mems
	case storeapi.StmtCommit:
		r.Seq = resp.Seq
	}
	return r
}

// ExecBatch ships the whole statement sequence as one OpBatch frame —
// one round trip instead of len(stmts) — and scatter-gathers the
// per-statement results back into storeapi's shape. Semantics match
// the serial calls exactly: the server executes sub-requests in order
// and stops at the first failure; statements past it come back as
// ErrStmtSkipped.
func (t *remoteTxn) ExecBatch(ctx context.Context, stmts []storeapi.Stmt) ([]storeapi.StmtResult, error) {
	if len(stmts) == 0 {
		return nil, nil
	}
	// Sub-requests leave Tx zero: the server runs them under the batch's,
	// and the field mask then keeps it off the wire.
	req := &Request{Op: OpBatch, Batch: make([]Request, len(stmts))}
	for i := range stmts {
		sub, err := requestOf(stmts[i])
		if err != nil {
			return nil, err
		}
		req.Batch[i] = sub
	}
	resp, err := t.call(ctx, req)
	if err != nil {
		return nil, err
	}
	if err := decodeErr(resp); err != nil {
		return nil, err
	}
	out := make([]storeapi.StmtResult, len(stmts))
	for i := range stmts {
		if i >= len(resp.Batch) {
			out[i].Err = storeapi.ErrStmtSkipped
			continue
		}
		out[i] = stmtResult(stmts[i], &resp.Batch[i])
	}
	// A trailing Commit/Abort that actually executed (whether it
	// succeeded or conflicted) ended the server-side transaction; release
	// the pinned stream to match.
	if stmts[len(stmts)-1].Ends() && len(resp.Batch) == len(stmts) {
		t.finish()
	}
	return out, nil
}
