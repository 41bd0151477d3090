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
// the database tier. Call Start/Close as with dbwire.Server. It serves
// the two-phase participant ops only when the handle is a
// storeapi.Preparer; otherwise dbwire refuses them as unknown ops,
// which a coordinator reads as a no vote.
func NewServer(db storeapi.Conn) *Server {
	l := &logic{Conn: db}
	var served storeapi.Conn = l
	if p, ok := db.(storeapi.Preparer); ok {
		served = &participant{logic: l, prep: p}
	}
	return &Server{inner: dbwire.NewServer(served), logic: l}
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
// Reads, queries, subscriptions and pessimistic transactions pass
// straight through to the database handle it embeds (a subscription
// under the edge's context, which carries its origin); ApplyCommitSet is
// replaced by the split-servers commit logic.
type logic struct {
	storeapi.Conn

	applied  atomic.Uint64
	rejected atomic.Uint64
}

// count tallies one commit set's validation outcome: a conflict is a
// rejection, and any other error is no outcome at all.
func (l *logic) count(err error) {
	switch {
	case err == nil:
		l.applied.Add(1)
	case errors.Is(err, sqlstore.ErrConflict):
		l.rejected.Add(1)
	}
}

// ApplyCommitSet validates and applies a whole commit set through one
// database exchange, as it arrives: no set waits behind another. The
// exchange runs detached from the edge's cancellation, so every set the
// database decides is counted, even one whose caller has gone.
func (l *logic) ApplyCommitSet(ctx context.Context, cs memento.CommitSet) (sqlstore.ApplyResult, error) {
	ctx, sp := obs.StartSpan(context.WithoutCancel(ctx), "backend.apply")
	defer sp.End()
	res, err := l.Conn.ApplyCommitSet(ctx, cs)
	l.count(err)
	return res, err
}

// ApplyCommitSets applies each set as ApplyCommitSet does.
func (l *logic) ApplyCommitSets(ctx context.Context, sets []memento.CommitSet) ([]sqlstore.ApplySetResult, error) {
	return storeapi.ApplyEach(ctx, l, sets)
}

// participant is logic over a database handle with prepare support: it
// also relays 2PC's participant ops, counting their outcomes as
// ApplyCommitSet does.
type participant struct {
	*logic
	prep storeapi.Preparer
}

// Prepare relays 2PC's first phase to the database tier, counting a no
// vote for a conflict as a rejected commit set.
func (p *participant) Prepare(ctx context.Context, gid string, cs memento.CommitSet) error {
	ctx, sp := obs.StartSpan(ctx, "backend.prepare")
	defer sp.End()
	err := p.prep.Prepare(ctx, gid, cs)
	if err != nil {
		p.count(err)
	}
	return err
}

// CommitPrepared relays 2PC's commit decision to the database tier.
func (p *participant) CommitPrepared(ctx context.Context, gid string) (sqlstore.ApplyResult, error) {
	ctx, sp := obs.StartSpan(ctx, "backend.commit_prepared")
	defer sp.End()
	res, err := p.prep.CommitPrepared(ctx, gid)
	if err != nil {
		return sqlstore.ApplyResult{}, err
	}
	p.count(nil)
	return res, nil
}

// AbortPrepared relays 2PC's abort decision to the database tier.
func (p *participant) AbortPrepared(ctx context.Context, gid string) error {
	ctx, sp := obs.StartSpan(ctx, "backend.abort_prepared")
	defer sp.End()
	return p.prep.AbortPrepared(ctx, gid)
}
