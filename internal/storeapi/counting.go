package storeapi

import (
	"context"
	"errors"
	"sync/atomic"

	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
)

// CountingConn wraps a Conn and counts every statement that would be a
// wire round trip on a remote implementation: Begin, each transaction
// operation, Commit/Abort, the auto operations, and ApplyCommitSet.
// The evaluation uses it to verify the per-algorithm access counts that
// drive the paper's latency sensitivities without standing up a network.
type CountingConn struct {
	inner Conn
	ops   atomic.Uint64
}

var _ Conn = (*CountingConn)(nil)

// NewCountingConn wraps conn.
func NewCountingConn(conn Conn) *CountingConn {
	return &CountingConn{inner: conn}
}

// Ops returns the number of statements issued so far.
func (c *CountingConn) Ops() uint64 { return c.ops.Load() }

// Begin implements Conn.
func (c *CountingConn) Begin(ctx context.Context) (Txn, error) {
	c.ops.Add(1)
	txn, err := c.inner.Begin(ctx)
	if err != nil {
		return nil, err
	}
	t := &countingTxn{inner: txn, ops: &c.ops}
	t.StmtTxn = StmtTxn{TxID: txn.ID(), Execer: t}
	return t, nil
}

// AutoGet implements Conn.
func (c *CountingConn) AutoGet(ctx context.Context, table, id string) (GetResult, error) {
	c.ops.Add(1)
	return c.inner.AutoGet(ctx, table, id)
}

// AutoQuery implements Conn.
func (c *CountingConn) AutoQuery(ctx context.Context, q memento.Query) (QueryResult, error) {
	c.ops.Add(1)
	return c.inner.AutoQuery(ctx, q)
}

// ApplyCommitSet implements Conn.
func (c *CountingConn) ApplyCommitSet(ctx context.Context, cs memento.CommitSet) (sqlstore.ApplyResult, error) {
	c.ops.Add(1)
	return c.inner.ApplyCommitSet(ctx, cs)
}

// ApplyCommitSets implements Conn: one op per set.
func (c *CountingConn) ApplyCommitSets(ctx context.Context, sets []memento.CommitSet) ([]sqlstore.ApplySetResult, error) {
	return ApplyEach(ctx, c, sets)
}

// Prepare implements Preparer: one exchange, one op. When the wrapped
// Conn has no prepare support the call fails — the counting wrapper
// keeps the optional interface visible but cannot add the capability.
func (c *CountingConn) Prepare(ctx context.Context, gid string, cs memento.CommitSet) error {
	c.ops.Add(1)
	p, ok := c.inner.(Preparer)
	if !ok {
		return errNoPrepare
	}
	return p.Prepare(ctx, gid, cs)
}

// CommitPrepared implements Preparer: one exchange, one op.
func (c *CountingConn) CommitPrepared(ctx context.Context, gid string) (sqlstore.ApplyResult, error) {
	c.ops.Add(1)
	p, ok := c.inner.(Preparer)
	if !ok {
		return sqlstore.ApplyResult{}, errNoPrepare
	}
	return p.CommitPrepared(ctx, gid)
}

// AbortPrepared implements Preparer: one exchange, one op.
func (c *CountingConn) AbortPrepared(ctx context.Context, gid string) error {
	c.ops.Add(1)
	p, ok := c.inner.(Preparer)
	if !ok {
		return errNoPrepare
	}
	return p.AbortPrepared(ctx, gid)
}

var errNoPrepare = errors.New("storeapi: wrapped Conn does not support prepare")

var _ Preparer = (*CountingConn)(nil)

// Subscribe implements Conn. Subscriptions are push streams, not
// request/response statements, so they are not counted.
func (c *CountingConn) Subscribe(ctx context.Context) (<-chan sqlstore.Notice, func(), error) {
	return c.inner.Subscribe(ctx)
}

// Close implements Conn.
func (c *CountingConn) Close() error { return c.inner.Close() }

// countingTxn counts every statement and every batch of one wrapped
// transaction.
type countingTxn struct {
	StmtTxn
	inner Txn
	ops   *atomic.Uint64
}

// Exec implements Execer.
func (t *countingTxn) Exec(ctx context.Context, st Stmt) StmtResult {
	t.ops.Add(1)
	return ExecStmt(ctx, t.inner, st)
}

// ExecBatch implements BatchTxn: a batch is one exchange on a remote
// transaction, so it counts one op regardless of statement count —
// the round-trip economics the batching exists to buy.
func (t *countingTxn) ExecBatch(ctx context.Context, stmts []Stmt) ([]StmtResult, error) {
	if len(stmts) == 0 {
		return nil, nil
	}
	t.ops.Add(1)
	return ExecBatch(ctx, t.inner, stmts)
}
