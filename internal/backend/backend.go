package backend

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"edgeejb/internal/dbwire"
	"edgeejb/internal/memento"
	"edgeejb/internal/obs"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// Server is the back-end application server. It serves the dbwire
// protocol (so edge servers use the ordinary dbwire.Client against it)
// over a logic layer that coalesces whole commit sets into one grouped
// database exchange per batch.
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

	// Group-commit state: arrivals append to queue; the first arrival
	// with no leader becomes the leader and drains the queue in grouped
	// batches until it is empty.
	gmu    sync.Mutex
	queue  []*groupEntry
	leader bool
}

// groupEntry is one queued commit set awaiting the group leader.
type groupEntry struct {
	cs   memento.CommitSet
	done chan struct{}
	res  sqlstore.ApplyResult
	err  error
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

// ApplyCommitSet validates and applies a whole commit set. Commit sets
// that arrive while another is being applied coalesce (group commit):
// the first arrival becomes the batch leader and drains the queue,
// applying each batch through one grouped database exchange and one
// invalidation fan-out; later arrivals just wait for their own result.
// Per-set outcomes, conflict attribution included, are those of serial
// application; only the round-trip economics differ. A lone set is a
// batch of one and takes the same single exchange.
func (l *logic) ApplyCommitSet(ctx context.Context, cs memento.CommitSet) (sqlstore.ApplyResult, error) {
	e := &groupEntry{cs: cs, done: make(chan struct{})}
	l.gmu.Lock()
	l.queue = append(l.queue, e)
	if l.leader {
		// A leader is already draining; it will carry this entry.
		l.gmu.Unlock()
		select {
		case <-e.done:
			return e.res, e.err
		case <-ctx.Done():
			// The set still applies server-side (the leader runs detached
			// from follower contexts); only this wait is abandoned.
			return sqlstore.ApplyResult{}, ctx.Err()
		}
	}
	l.leader = true
	l.gmu.Unlock()
	// Drain until empty. Later batches carry other transactions' sets,
	// so they run detached from this caller's cancellation.
	for {
		l.gmu.Lock()
		batch := l.queue
		l.queue = nil
		if len(batch) == 0 {
			l.leader = false
			l.gmu.Unlock()
			break
		}
		l.gmu.Unlock()
		l.runBatch(context.WithoutCancel(ctx), batch)
	}
	<-e.done // the leader's own entry was in some drained batch
	return e.res, e.err
}

// runBatch applies one drained batch and resolves its entries.
func (l *logic) runBatch(ctx context.Context, batch []*groupEntry) {
	sets := make([]memento.CommitSet, len(batch))
	for i, e := range batch {
		sets[i] = e.cs
	}
	results, err := l.ApplyCommitSets(ctx, sets)
	for i, e := range batch {
		if err != nil {
			// Whole-batch failure (transport, short reply): neither
			// applied nor rejected.
			e.err = err
		} else {
			e.res, e.err = results[i].Res, results[i].Err
		}
		close(e.done)
	}
}

// ApplyCommitSets is the one database exchange of the commit path,
// for a batch drained by ApplyCommitSet and for a grouped apply
// forwarded by an upstream tier alike: one call on the database
// handle, whose reply must carry one result per set, each counted.
func (l *logic) ApplyCommitSets(ctx context.Context, sets []memento.CommitSet) ([]sqlstore.ApplySetResult, error) {
	ctx, sp := obs.StartSpan(ctx, "backend.apply")
	defer sp.End()
	results, err := l.db.ApplyCommitSets(ctx, sets)
	if err != nil {
		return nil, err
	}
	if len(results) != len(sets) {
		return nil, fmt.Errorf("backend: apply: %d results for %d sets", len(results), len(sets))
	}
	for i := range results {
		l.count(results[i].Err)
	}
	return results, nil
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
