package storeapi

import (
	"context"
	"errors"
	"fmt"

	"edgeejb/internal/memento"
)

// StmtKind enumerates the statement types a batch can carry — one per
// Txn method, so a component can ship any statement sequence it would
// otherwise issue call by call.
type StmtKind uint8

// Batchable statement kinds.
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

// Stmt is one statement of a batch. Fields beyond Kind are populated
// according to the statement, mirroring the corresponding Txn method's
// arguments.
type Stmt struct {
	Kind    StmtKind
	Table   string
	ID      string
	Key     memento.Key
	Version uint64
	Mem     memento.Memento
	Query   memento.Query
}

// StmtResult is one statement's outcome, positionally matched to the
// batch: Get for StmtGet/StmtGetForUpdate, Q for StmtQuery, Err for any
// statement that failed or was skipped.
type StmtResult struct {
	Get GetResult
	Q   QueryResult
	Err error
}

// ErrStmtSkipped marks the statements after a batch's first failure:
// batches execute sequentially and stop at the first error, exactly as
// the equivalent call-by-call sequence would.
var ErrStmtSkipped = errors.New("storeapi: statement skipped after earlier batch failure")

// BatchTxn is implemented by transactions that can execute several
// statements in one exchange — dbwire's remote transaction ships the
// whole batch as one frame (one round trip instead of len(stmts)).
// Semantics are identical to issuing the statements one by one:
// sequential execution, stop at the first error, later statements
// reported as ErrStmtSkipped.
type BatchTxn interface {
	ExecBatch(ctx context.Context, stmts []Stmt) ([]StmtResult, error)
}

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
// statement, stopping at the first failure. It has ExecBatch's signature
// so a caller can choose between one exchange and one per statement by
// choosing the executor.
func ExecSerial(ctx context.Context, txn Txn, stmts []Stmt) ([]StmtResult, error) {
	out := make([]StmtResult, len(stmts))
	for i := range stmts {
		out[i] = execOne(ctx, txn, stmts[i])
		if out[i].Err != nil {
			for j := i + 1; j < len(stmts); j++ {
				out[j].Err = ErrStmtSkipped
			}
			break
		}
	}
	return out, nil
}

func execOne(ctx context.Context, txn Txn, st Stmt) StmtResult {
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
		r.Err = txn.Commit(ctx)
	case StmtAbort:
		r.Err = txn.Abort(ctx)
	default:
		r.Err = fmt.Errorf("storeapi: unknown statement kind %d", st.Kind)
	}
	return r
}
