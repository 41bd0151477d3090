package storeapi

import (
	"context"
	"errors"
	"fmt"

	"edgeejb/internal/memento"
)

// StmtKind enumerates the statements of a transaction, one per Txn
// method, so a component can ship any statement sequence it would
// otherwise issue call by call.
type StmtKind uint8

// Statement kinds.
const (
	StmtGet StmtKind = iota + 1
	StmtGetForUpdate
	StmtQuery
	StmtPut
	StmtInsert
	StmtDelete
	StmtCheckVersion
	StmtCheckedPut
	StmtCheckedDelete
	StmtCommit
	StmtAbort
)

// Stmt is one statement of a transaction. Fields beyond Kind are
// populated according to the statement, mirroring the corresponding Txn
// method's arguments.
type Stmt struct {
	Kind    StmtKind
	Table   string
	ID      string
	Key     memento.Key
	Version uint64
	Mem     memento.Memento
	Query   memento.Query
}

// Ends reports whether the statement ends its transaction.
func (st Stmt) Ends() bool { return st.Kind == StmtCommit || st.Kind == StmtAbort }

// StmtResult is one statement's outcome, positionally matched to the
// batch: Get for StmtGet/StmtGetForUpdate, Q for StmtQuery, Seq for
// StmtCommit, Err for any statement that failed or was skipped.
type StmtResult struct {
	Get GetResult
	Q   QueryResult
	// Seq is the number a commit took from the store's commit counter,
	// the version of every row it wrote (sqlstore.Tx.Seq); zero for a
	// commit that wrote nothing.
	Seq uint64
	Err error
}

// ErrStmtSkipped marks the statements after a batch's first failure:
// batches execute sequentially and stop at the first error, exactly as
// the equivalent call-by-call sequence would.
var ErrStmtSkipped = errors.New("storeapi: statement skipped after earlier batch failure")

// Execer runs one statement of an open transaction.
type Execer interface {
	Exec(ctx context.Context, st Stmt) StmtResult
}

// StmtTxn is the one implementation of Txn's statement methods: each
// builds its Stmt and hands it to the Execer. A transaction is
// therefore written as a single method that runs one statement —
// Local's runs it on the store, CountingConn's counts it and passes it
// on, dbwire's sends it as one round trip. A transaction that can also
// run a list in one exchange embeds StmtTxn and adds ExecBatch.
type StmtTxn struct {
	TxID uint64
	Execer
}

var _ Txn = (*StmtTxn)(nil)

// ID implements Txn.
func (t *StmtTxn) ID() uint64 { return t.TxID }

// Get implements Txn.
func (t *StmtTxn) Get(ctx context.Context, table, id string) (GetResult, error) {
	r := t.Exec(ctx, Stmt{Kind: StmtGet, Table: table, ID: id})
	return r.Get, r.Err
}

// GetForUpdate implements Txn.
func (t *StmtTxn) GetForUpdate(ctx context.Context, table, id string) (GetResult, error) {
	r := t.Exec(ctx, Stmt{Kind: StmtGetForUpdate, Table: table, ID: id})
	return r.Get, r.Err
}

// Query implements Txn.
func (t *StmtTxn) Query(ctx context.Context, q memento.Query) (QueryResult, error) {
	r := t.Exec(ctx, Stmt{Kind: StmtQuery, Query: q})
	return r.Q, r.Err
}

// Put implements Txn.
func (t *StmtTxn) Put(ctx context.Context, m memento.Memento) error {
	return t.Exec(ctx, Stmt{Kind: StmtPut, Mem: m}).Err
}

// Insert implements Txn.
func (t *StmtTxn) Insert(ctx context.Context, m memento.Memento) error {
	return t.Exec(ctx, Stmt{Kind: StmtInsert, Mem: m}).Err
}

// Delete implements Txn.
func (t *StmtTxn) Delete(ctx context.Context, table, id string) error {
	return t.Exec(ctx, Stmt{Kind: StmtDelete, Table: table, ID: id}).Err
}

// CheckVersion implements Txn.
func (t *StmtTxn) CheckVersion(ctx context.Context, key memento.Key, version uint64) error {
	return t.Exec(ctx, Stmt{Kind: StmtCheckVersion, Key: key, Version: version}).Err
}

// CheckedPut implements Txn.
func (t *StmtTxn) CheckedPut(ctx context.Context, m memento.Memento) error {
	return t.Exec(ctx, Stmt{Kind: StmtCheckedPut, Mem: m}).Err
}

// CheckedDelete implements Txn.
func (t *StmtTxn) CheckedDelete(ctx context.Context, key memento.Key, version uint64) error {
	return t.Exec(ctx, Stmt{Kind: StmtCheckedDelete, Key: key, Version: version}).Err
}

// Commit implements Txn. It reports the commit's number into the
// context's seqSink, if any (see ExecStmt).
func (t *StmtTxn) Commit(ctx context.Context) error {
	r := t.Exec(ctx, Stmt{Kind: StmtCommit})
	if p, ok := ctx.Value(seqSink{}).(*uint64); ok {
		*p = r.Seq
	}
	return r.Err
}

// seqSink is the context key under which ExecStmt hands Txn.Commit a
// place for the commit's number, so that the number crosses a Txn
// decorator that is not an Execer (a tracing wrapper) as long as it
// passes the context on.
type seqSink struct{}

// Abort implements Txn.
func (t *StmtTxn) Abort(ctx context.Context) error {
	return t.Exec(ctx, Stmt{Kind: StmtAbort}).Err
}

// BatchTxn is implemented by transactions that can execute several
// statements in one exchange — dbwire's remote transaction ships the
// whole batch as one frame (one round trip instead of len(stmts)).
// Semantics are identical to issuing the statements one by one:
// sequential execution, stop at the first error, later statements
// reported as ErrStmtSkipped.
type BatchTxn interface {
	ExecBatch(ctx context.Context, stmts []Stmt) ([]StmtResult, error)
}

// Executor runs a statement list on a transaction: ExecBatch in one
// exchange, ExecSerial in one per statement. The statements, their
// order and where they stop are the same either way, so a caller picks
// its executor once and sends every list through it.
type Executor func(ctx context.Context, txn Txn, stmts []Stmt) ([]StmtResult, error)

// ExecBatch executes stmts on txn, using the transaction's native batch
// support when it has any and falling back to the equivalent serial
// calls otherwise — so components can batch unconditionally and still
// run against local or older transactions. The error return is reserved
// for whole-batch (transport-level) failures; per-statement outcomes
// are in the results.
func ExecBatch(ctx context.Context, txn Txn, stmts []Stmt) ([]StmtResult, error) {
	if len(stmts) == 0 {
		return nil, nil
	}
	if bt, ok := txn.(BatchTxn); ok {
		return bt.ExecBatch(ctx, stmts)
	}
	return ExecSerial(ctx, txn, stmts)
}

// ExecSerial is the reference semantics of a batch: one call per
// statement, stopping at the first failure.
func ExecSerial(ctx context.Context, txn Txn, stmts []Stmt) ([]StmtResult, error) {
	out := make([]StmtResult, len(stmts))
	for i := range stmts {
		out[i] = ExecStmt(ctx, txn, stmts[i])
		if out[i].Err != nil {
			for j := i + 1; j < len(stmts); j++ {
				out[j].Err = ErrStmtSkipped
			}
			break
		}
	}
	return out, nil
}

// ExecStmt runs one statement: through the transaction's own Exec when
// it is an Execer, and otherwise as the Txn method it names — the one
// dispatch from a Stmt back to a call. Txn.Commit returns only an
// error, so a commit's Seq comes back through Exec's result, or through
// the seqSink a StmtTxn underneath the decorator fills in; a Txn that
// loses both leaves it zero.
func ExecStmt(ctx context.Context, txn Txn, st Stmt) StmtResult {
	if x, ok := txn.(Execer); ok {
		return x.Exec(ctx, st)
	}
	var r StmtResult
	switch st.Kind {
	case StmtGet:
		r.Get, r.Err = txn.Get(ctx, st.Table, st.ID)
	case StmtGetForUpdate:
		r.Get, r.Err = txn.GetForUpdate(ctx, st.Table, st.ID)
	case StmtQuery:
		r.Q, r.Err = txn.Query(ctx, st.Query)
	case StmtPut:
		r.Err = txn.Put(ctx, st.Mem)
	case StmtInsert:
		r.Err = txn.Insert(ctx, st.Mem)
	case StmtDelete:
		r.Err = txn.Delete(ctx, st.Table, st.ID)
	case StmtCheckVersion:
		r.Err = txn.CheckVersion(ctx, st.Key, st.Version)
	case StmtCheckedPut:
		r.Err = txn.CheckedPut(ctx, st.Mem)
	case StmtCheckedDelete:
		r.Err = txn.CheckedDelete(ctx, st.Key, st.Version)
	case StmtCommit:
		var seq uint64
		r.Err = txn.Commit(context.WithValue(ctx, seqSink{}, &seq))
		r.Seq = seq
	case StmtAbort:
		r.Err = txn.Abort(ctx)
	default:
		r.Err = fmt.Errorf("storeapi: unknown statement kind %d", st.Kind)
	}
	return r
}

// Run executes stmts and finds the first statement that failed (the
// skipped markers that restate it only ever follow it). at is that
// statement's index, or -1 when err is nil or the whole exchange failed.
func (x Executor) Run(ctx context.Context, txn Txn, stmts []Stmt) (results []StmtResult, at int, err error) {
	results, err = x(ctx, txn, stmts)
	if err != nil {
		return nil, -1, err
	}
	for i, r := range results {
		if r.Err != nil {
			return results, i, r.Err
		}
	}
	return results, -1, nil
}

// Commit runs stmts, a list that ends in StmtCommit, and ends the
// transaction either way: it returns the number the commit took (see
// StmtResult.Seq), or the first failing statement's index and error (at
// is -1 when the exchange itself failed), and aborts the transaction
// unless the trailing commit ran.
func (x Executor) Commit(ctx context.Context, txn Txn, stmts []Stmt) (seq uint64, at int, err error) {
	results, at, err := x.Run(ctx, txn, stmts)
	if err != nil {
		if at != len(stmts)-1 {
			_ = txn.Abort(ctx)
		}
		return 0, at, err
	}
	return results[len(results)-1].Seq, -1, nil
}
