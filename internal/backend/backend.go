package backend

import (
	"context"
	"errors"
	"sync/atomic"

	"edgeejb/internal/dbwire"
	"edgeejb/internal/memento"
	"edgeejb/internal/obs"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// Server is the back-end application server. It serves the dbwire
// protocol (so edge servers use the ordinary dbwire.Client against it)
// over a logic layer that hands each whole commit set to the database
// in one exchange, as it arrives.
type Server struct {
	inner *dbwire.Server
	logic *logic
}

// NewServer builds a back-end server over its (low-latency) handle to
// the database tier. Call Start/Close as with dbwire.Server.
func NewServer(db storeapi.Conn) *Server {
	l := &logic{db: db, prep: refusePrepare{}}
	if p, ok := db.(storeapi.Preparer); ok {
		l.prep = p
	}
	return &Server{inner: dbwire.NewServer(l), logic: l}
}

// Start listens on addr and serves in the background.
func (s *Server) Start(addr string) error { return s.inner.Start(addr) }

// Addr returns the listen address.
func (s *Server) Addr() string { return s.inner.Addr() }

// Close shuts the server down. It does not close the database handle.
func (s *Server) Close() { s.inner.Close() }

// CommitsApplied returns the number of commit sets validated and
// applied successfully.
func (s *Server) CommitsApplied() uint64 { return s.logic.applied.Load() }

// CommitsRejected returns the number of commit sets rejected with a
// conflict.
func (s *Server) CommitsRejected() uint64 { return s.logic.rejected.Load() }

// logic is the storeapi.Conn the embedded dbwire server dispatches to.
// Reads, queries and pessimistic transactions pass straight through to
// the database handle; ApplyCommitSet is replaced by the split-servers
// commit logic.
type logic struct {
	db storeapi.Conn
	// prep is db's two-phase surface, or refusePrepare when the handle
	// hides it.
	prep storeapi.Preparer

	applied  atomic.Uint64
	rejected atomic.Uint64
}

var _ storeapi.Conn = (*logic)(nil)

func (l *logic) Begin(ctx context.Context) (storeapi.Txn, error) { return l.db.Begin(ctx) }

func (l *logic) AutoGet(ctx context.Context, table, id string) (storeapi.GetResult, error) {
	return l.db.AutoGet(ctx, table, id)
}

func (l *logic) AutoQuery(ctx context.Context, q memento.Query) (storeapi.QueryResult, error) {
	return l.db.AutoQuery(ctx, q)
}

// Subscribe opens one database subscription per edge subscription,
// under the edge's context: its origin and, when it asked for keys
// only, the database's stream to the back-end carries keys only too.
func (l *logic) Subscribe(ctx context.Context) (<-chan sqlstore.Notice, func(), error) {
	return l.db.Subscribe(ctx)
}

func (l *logic) Close() error { return nil }

// count tallies one commit set's validation outcome.
func (l *logic) count(err error) {
	if err != nil {
		l.rejected.Add(1)
		return
	}
	l.applied.Add(1)
}

// ApplyCommitSet validates and applies a whole commit set through one
// database exchange, as it arrives: no set waits behind another. The
// exchange runs detached from the edge's cancellation, so every set the
// database decides is counted, even one whose caller has gone.
func (l *logic) ApplyCommitSet(ctx context.Context, cs memento.CommitSet) (sqlstore.ApplyResult, error) {
	ctx, sp := obs.StartSpan(context.WithoutCancel(ctx), "backend.apply")
	defer sp.End()
	res, err := l.db.ApplyCommitSet(ctx, cs)
	if err == nil || errors.Is(err, sqlstore.ErrConflict) {
		l.count(err)
	}
	return res, err
}

// ApplyCommitSets applies each set as ApplyCommitSet does.
func (l *logic) ApplyCommitSets(ctx context.Context, sets []memento.CommitSet) ([]sqlstore.ApplySetResult, error) {
	return storeapi.ApplyEach(ctx, l, sets)
}

// Prepare relays 2PC's first phase to the database tier, counting a no
// vote like any other rejected commit-set validation.
func (l *logic) Prepare(ctx context.Context, gid string, cs memento.CommitSet) error {
	ctx, sp := obs.StartSpan(ctx, "backend.prepare")
	defer sp.End()
	err := l.prep.Prepare(ctx, gid, cs)
	if err != nil {
		l.count(err)
	}
	return err
}

// CommitPrepared relays 2PC's commit decision to the database tier.
func (l *logic) CommitPrepared(ctx context.Context, gid string) (sqlstore.ApplyResult, error) {
	ctx, sp := obs.StartSpan(ctx, "backend.commit_prepared")
	defer sp.End()
	res, err := l.prep.CommitPrepared(ctx, gid)
	if err != nil {
		return sqlstore.ApplyResult{}, err
	}
	l.count(nil)
	return res, nil
}

// AbortPrepared relays 2PC's abort decision to the database tier.
func (l *logic) AbortPrepared(ctx context.Context, gid string) error {
	ctx, sp := obs.StartSpan(ctx, "backend.abort_prepared")
	defer sp.End()
	return l.prep.AbortPrepared(ctx, gid)
}

// refusePrepare stands in for the two-phase surface of a database
// handle that hides it (a wrapper that does not forward
// storeapi.Preparer): every relay fails, which the coordinator treats
// as a no vote and aborts the global transaction.
type refusePrepare struct{}

var errNoPrepare = errors.New("backend: database handle does not support prepare")

func (refusePrepare) Prepare(context.Context, string, memento.CommitSet) error { return errNoPrepare }

func (refusePrepare) CommitPrepared(context.Context, string) (sqlstore.ApplyResult, error) {
	return sqlstore.ApplyResult{}, errNoPrepare
}

func (refusePrepare) AbortPrepared(context.Context, string) error { return errNoPrepare }
