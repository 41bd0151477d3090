package dbwire

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// OpCode identifies a request operation.
type OpCode uint8

// Protocol operations.
const (
	OpBegin OpCode = iota + 1
	OpGet
	OpGetForUpdate
	OpPut
	OpInsert
	OpDelete
	OpQuery
	OpCheckVersion
	OpCheckedPut
	OpCheckedDelete
	OpCommit
	OpAbort
	OpApplyCommitSet
	OpSubscribe
	OpPing
	OpAutoGet
	OpAutoQuery
	// OpBatch carries several statements of one transaction in a single
	// frame, executed sequentially server-side with per-statement
	// results — one round trip instead of len(Batch).
	OpBatch
	// The retired grouped commit-set apply's code stays reserved, so no
	// later op's byte moves; a server answers it CodeBadRequest.
	_
	// OpPrepare is two-phase commit's first phase: validate the commit
	// sub-set in Set and hold its locks under the global identifier in
	// Gid. A server whose datastore handle is no storeapi.Preparer
	// answers CodeBadRequest, which the coordinator takes as a no vote.
	OpPrepare
	// OpCommitPrepared commits the transaction prepared under Gid.
	OpCommitPrepared
	// OpAbortPrepared aborts the transaction prepared under Gid.
	OpAbortPrepared
)

// ops names every op and pairs each of the eleven statement ops with
// the storeapi statement kind it carries: the one table that knows which
// op a statement travels as.
var ops = [...]struct {
	name string
	kind storeapi.StmtKind
}{
	OpBegin:          {"Begin", 0},
	OpGet:            {"Get", storeapi.StmtGet},
	OpGetForUpdate:   {"GetForUpdate", storeapi.StmtGetForUpdate},
	OpPut:            {"Put", storeapi.StmtPut},
	OpInsert:         {"Insert", storeapi.StmtInsert},
	OpDelete:         {"Delete", storeapi.StmtDelete},
	OpQuery:          {"Query", storeapi.StmtQuery},
	OpCheckVersion:   {"CheckVersion", storeapi.StmtCheckVersion},
	OpCheckedPut:     {"CheckedPut", storeapi.StmtCheckedPut},
	OpCheckedDelete:  {"CheckedDelete", storeapi.StmtCheckedDelete},
	OpCommit:         {"Commit", storeapi.StmtCommit},
	OpAbort:          {"Abort", storeapi.StmtAbort},
	OpApplyCommitSet: {"ApplyCommitSet", 0},
	OpSubscribe:      {"Subscribe", 0},
	OpPing:           {"Ping", 0},
	OpAutoGet:        {"AutoGet", 0},
	OpAutoQuery:      {"AutoQuery", 0},
	OpBatch:          {"Batch", 0},
	OpPrepare:        {"Prepare", 0},
	OpCommitPrepared: {"CommitPrepared", 0},
	OpAbortPrepared:  {"AbortPrepared", 0},
}

// String returns the operation name.
func (o OpCode) String() string {
	if int(o) < len(ops) && ops[o].name != "" {
		return ops[o].name
	}
	return fmt.Sprintf("OpCode(%d)", uint8(o))
}

// requestOf is st as the request that carries it. A Stmt's fields are
// a Request's, so the kind picks the op and the rest is copied as is.
func requestOf(st storeapi.Stmt) (Request, error) {
	for op := range ops {
		if k := ops[op].kind; k != 0 && k == st.Kind {
			return Request{Op: OpCode(op), Table: st.Table, ID: st.ID, Key: st.Key,
				Version: st.Version, Mem: st.Mem, Query: st.Query}, nil
		}
	}
	return Request{}, fmt.Errorf("dbwire: unknown statement kind %d", st.Kind)
}

// stmt is the statement a request carries; ok is false for an op that
// is not one statement of a transaction.
func (r *Request) stmt() (st storeapi.Stmt, ok bool) {
	if int(r.Op) >= len(ops) || ops[r.Op].kind == 0 {
		return storeapi.Stmt{}, false
	}
	return storeapi.Stmt{Kind: ops[r.Op].kind, Table: r.Table, ID: r.ID, Key: r.Key,
		Version: r.Version, Mem: r.Mem, Query: r.Query}, true
}

// Request is one client-to-server message. Fields beyond Op are
// populated according to the operation.
type Request struct {
	Op      OpCode
	Tx      uint64
	Table   string
	ID      string
	Key     memento.Key
	Version uint64
	Mem     memento.Memento
	Query   memento.Query
	Set     memento.CommitSet
	// Batch carries the sub-requests of an OpBatch, each a statement of
	// the transaction named by Tx.
	Batch []Request
	// Gid names the global (cross-shard) transaction of a prepare-phase
	// op; the coordinator generates it and every participant keys its
	// prepared state on it.
	Gid string
	// Origin is the edge's origin on OpBegin and OpSubscribe (see
	// sqlstore.OriginContext), which the server puts back into the
	// request's context. A commit set carries its own.
	Origin uint64
	// KeysOnly, read only on OpSubscribe, asks for every pushed write
	// descriptor as its key alone (see sqlstore.KeysOnlyContext): the
	// subscriber's cache evicts by key and reads no field image. It
	// travels as its mask bit and nothing else; the server puts it back
	// into the request's context.
	KeysOnly bool
}

// WireLabel names the request for per-op transport stats.
func (r *Request) WireLabel() string { return r.Op.String() }

// ErrCode classifies a response outcome so sentinel errors survive the
// wire: the client reconstructs an error for which errors.Is matches the
// corresponding sqlstore sentinel.
type ErrCode uint8

// Response outcome codes.
const (
	CodeOK ErrCode = iota
	CodeNotFound
	CodeExists
	CodeConflict
	CodeTxDone
	CodeClosed
	CodeBadRequest
	CodeInternal
)

// Response is one server-to-client message: either an RPC reply or (on
// subscription connections) a pushed invalidation notice.
type Response struct {
	Code ErrCode
	Msg  string
	// Tx is the handle of the transaction an OpBegin started.
	Tx   uint64
	Mem  memento.Memento
	Mems []memento.Memento
	// Seq is a commit reply's one number: the Seq of the commit that
	// ran (sqlstore.ApplyResult.Seq, storeapi.StmtResult.Seq). The side
	// that sent the commit set rebuilds its result with
	// sqlstore.Applied.
	Seq    uint64
	Notice sqlstore.Notice
	// Conflict carries conflict attribution when Code is CodeConflict and
	// the server-side error was an attributed *sqlstore.ConflictError
	// (nil otherwise).
	Conflict *ConflictInfo
	// Batch carries per-statement results of an OpBatch (one entry per
	// executed sub-request; execution stops at the first failure, so it
	// may be shorter than the request's Batch).
	Batch []Response
}

// ConflictInfo is the wire form of sqlstore.ConflictError's attribution
// fields. It mirrors the struct rather than embedding it so the wire
// schema is explicit and independent of sqlstore's internals.
type ConflictInfo struct {
	Key              memento.Key
	Expected, Actual uint64
	WinnerTrace      uint64
	CommittedAt      time.Time
}

// encodeErr maps a server-side error to a wire code and message.
func encodeErr(err error) (ErrCode, string) {
	switch {
	case err == nil:
		return CodeOK, ""
	case errors.Is(err, sqlstore.ErrNotFound):
		return CodeNotFound, err.Error()
	case errors.Is(err, sqlstore.ErrExists):
		return CodeExists, err.Error()
	case errors.Is(err, sqlstore.ErrConflict):
		return CodeConflict, err.Error()
	case errors.Is(err, sqlstore.ErrTxDone):
		return CodeTxDone, err.Error()
	case errors.Is(err, sqlstore.ErrClosed):
		return CodeClosed, err.Error()
	default:
		return CodeInternal, err.Error()
	}
}

// errResponse builds the error reply for a server-side failure: the
// sentinel code and message from encodeErr plus, for attributed
// conflicts, the ConflictInfo payload.
func errResponse(err error) *Response {
	code, msg := encodeErr(err)
	resp := &Response{Code: code, Msg: msg}
	var ce *sqlstore.ConflictError
	if code == CodeConflict && errors.As(err, &ce) {
		resp.Conflict = &ConflictInfo{
			Key:         ce.Key,
			Expected:    ce.Expected,
			Actual:      ce.Actual,
			WinnerTrace: ce.WinnerTrace,
			CommittedAt: ce.CommittedAt,
		}
	}
	return resp
}

// decodeErr reconstructs a sentinel-matching error from a wire response.
// An attributed conflict comes back as a *sqlstore.ConflictError, so
// errors.As works identically on both sides of the wire (and across a
// relayed hop: the backend's client decodes it, and its server's
// errResponse re-encodes it).
func decodeErr(resp *Response) error {
	switch resp.Code {
	case CodeOK:
		return nil
	case CodeNotFound:
		return wireError{sentinel: sqlstore.ErrNotFound, msg: resp.Msg}
	case CodeExists:
		return wireError{sentinel: sqlstore.ErrExists, msg: resp.Msg}
	case CodeConflict:
		if ci := resp.Conflict; ci != nil {
			return &sqlstore.ConflictError{
				Key:         ci.Key,
				Expected:    ci.Expected,
				Actual:      ci.Actual,
				WinnerTrace: ci.WinnerTrace,
				CommittedAt: ci.CommittedAt,
				Detail:      strings.TrimPrefix(resp.Msg, sqlstore.ErrConflict.Error()+": "),
			}
		}
		return wireError{sentinel: sqlstore.ErrConflict, msg: resp.Msg}
	case CodeTxDone:
		return wireError{sentinel: sqlstore.ErrTxDone, msg: resp.Msg}
	case CodeClosed:
		return wireError{sentinel: sqlstore.ErrClosed, msg: resp.Msg}
	case CodeBadRequest:
		return fmt.Errorf("dbwire: bad request: %s", resp.Msg)
	default:
		return fmt.Errorf("dbwire: server error: %s", resp.Msg)
	}
}

// wireError carries a server error across the wire while preserving
// errors.Is matching against the sqlstore sentinels.
type wireError struct {
	sentinel error
	msg      string
}

func (e wireError) Error() string {
	if e.msg != "" {
		return e.msg
	}
	return e.sentinel.Error()
}

func (e wireError) Unwrap() error { return e.sentinel }
