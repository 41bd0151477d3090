package backend

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"edgeejb/internal/dbwire"
	"edgeejb/internal/memento"
	"edgeejb/internal/obs"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
	"edgeejb/internal/wire"
)

// Server is the back-end application server. It serves the dbwire
// protocol (so edge servers use the ordinary dbwire.Client against it)
// over a logic layer that expands whole commit sets into per-statement
// database work.
type Server struct {
	inner *dbwire.Server
	logic *logic
}

// NewServer builds a back-end server over its (low-latency) handle to
// the database tier. Call Start/Close as with dbwire.Server.
func NewServer(db storeapi.Conn) *Server {
	l := &logic{db: db}
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

	applied  counter
	rejected counter

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

func (l *logic) Subscribe(ctx context.Context) (<-chan sqlstore.Notice, func(), error) {
	return l.db.Subscribe(ctx)
}

func (l *logic) Close() error { return nil }

// beginRetry opens a database transaction, retrying transient failures
// (a database server restarting under the back-end) under a short
// jittered backoff. Conflicts and context cancellation are surfaced
// immediately — only transport-level begin failures are worth waiting
// out, and the edge's own retry budget bounds the total wait.
func (l *logic) beginRetry(ctx context.Context) (storeapi.Txn, error) {
	backoff := wire.Backoff{Base: 10 * time.Millisecond, Max: 250 * time.Millisecond, Jitter: 0.5}
	const attempts = 3
	for i := 0; ; i++ {
		txn, err := l.db.Begin(ctx)
		if err == nil {
			return txn, nil
		}
		if errors.Is(err, sqlstore.ErrConflict) || ctx.Err() != nil || i+1 >= attempts {
			return nil, err
		}
		if !backoff.Sleep(i, ctx.Done()) {
			return nil, err
		}
	}
}

// ApplyCommitSet validates and applies a whole commit set. Commit sets
// that arrive while another is being applied coalesce (group commit):
// the first arrival becomes the batch leader and drains the queue,
// applying each batch through one grouped database exchange and one
// invalidation fan-out; later arrivals just wait for their own result.
// Per-set outcomes, conflict attribution included, are those of serial
// application; only the round-trip economics differ. A batch of
// one takes the classic statement-by-statement path, so serial traffic
// renders the exact per-statement span waterfall of Figure 7.
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

// runBatch applies one coalesced batch and resolves its entries.
func (l *logic) runBatch(ctx context.Context, batch []*groupEntry) {
	obsGroupSize.Observe(time.Duration(len(batch)))
	if len(batch) == 1 {
		e := batch[0]
		e.res, e.err = l.applyOne(ctx, e.cs)
		close(e.done)
		return
	}
	gctx, sp := obs.StartSpan(ctx, "backend.apply_group")
	sets := make([]memento.CommitSet, len(batch))
	for i, e := range batch {
		sets[i] = e.cs
	}
	results, err := l.db.ApplyCommitSets(gctx, sets)
	sp.End()
	if err == nil && len(results) != len(batch) {
		err = fmt.Errorf("backend: group commit: %d results for %d sets", len(results), len(batch))
	}
	if err != nil {
		// Whole-group transport failure: neither applied nor rejected.
		for _, e := range batch {
			e.err = err
			close(e.done)
		}
		return
	}
	for i, e := range batch {
		if results[i].Err != nil {
			e.err = results[i].Err
			l.rejected.Add(1)
			obsCommitsRejected.Inc()
		} else {
			e.res = results[i].Res
			l.applied.Add(1)
			obsCommitsApplied.Inc()
		}
		close(e.done)
	}
}

// ApplyCommitSets forwards a grouped apply straight to the database
// handle — one exchange end to end when a downstream backend (or the
// store itself) is on the other side — keeping per-set counters.
func (l *logic) ApplyCommitSets(ctx context.Context, sets []memento.CommitSet) ([]sqlstore.ApplySetResult, error) {
	results, err := l.db.ApplyCommitSets(ctx, sets)
	if err != nil {
		return nil, err
	}
	for i := range results {
		if results[i].Err != nil {
			l.rejected.Add(1)
			obsCommitsRejected.Inc()
		} else {
			l.applied.Add(1)
			obsCommitsApplied.Inc()
		}
	}
	return results, nil
}

// Prepare relays 2PC's first phase to the database tier, counting the
// outcome like any other commit-set validation. A database handle
// without prepare support (a wrapper that hides it) fails the relay
// with an error, which the coordinator treats as a no vote and aborts
// the global transaction.
func (l *logic) Prepare(ctx context.Context, gid string, cs memento.CommitSet) error {
	ctx, sp := obs.StartSpan(ctx, "backend.prepare")
	defer sp.End()
	p, ok := l.db.(storeapi.Preparer)
	if !ok {
		return fmt.Errorf("backend: database handle does not support prepare")
	}
	if err := p.Prepare(ctx, gid, cs); err != nil {
		l.rejected.Add(1)
		obsCommitsRejected.Inc()
		return err
	}
	return nil
}

// CommitPrepared relays 2PC's commit decision to the database tier.
func (l *logic) CommitPrepared(ctx context.Context, gid string) (sqlstore.ApplyResult, error) {
	ctx, sp := obs.StartSpan(ctx, "backend.commit_prepared")
	defer sp.End()
	p, ok := l.db.(storeapi.Preparer)
	if !ok {
		return sqlstore.ApplyResult{}, fmt.Errorf("backend: database handle does not support prepare")
	}
	res, err := p.CommitPrepared(ctx, gid)
	if err != nil {
		return sqlstore.ApplyResult{}, err
	}
	l.applied.Add(1)
	obsCommitsApplied.Inc()
	return res, nil
}

// AbortPrepared relays 2PC's abort decision to the database tier.
func (l *logic) AbortPrepared(ctx context.Context, gid string) error {
	ctx, sp := obs.StartSpan(ctx, "backend.abort_prepared")
	defer sp.End()
	p, ok := l.db.(storeapi.Preparer)
	if !ok {
		return fmt.Errorf("backend: database handle does not support prepare")
	}
	return p.AbortPrepared(ctx, gid)
}

// applyOne validates and applies a whole commit set by driving the
// database statement-by-statement over the low-latency path.
func (l *logic) applyOne(ctx context.Context, cs memento.CommitSet) (sqlstore.ApplyResult, error) {
	ctx, sp := obs.StartSpan(ctx, "backend.apply")
	defer sp.End()
	txn, err := l.beginRetry(ctx)
	if err != nil {
		return sqlstore.ApplyResult{}, fmt.Errorf("backend: begin: %w", err)
	}
	abort := func(err error) (sqlstore.ApplyResult, error) {
		_ = txn.Abort(ctx)
		l.rejected.Add(1)
		obsCommitsRejected.Inc()
		return sqlstore.ApplyResult{}, err
	}
	for _, r := range cs.Reads {
		want := r.Version
		if r.Absent {
			want = 0
		}
		if err := txn.CheckVersion(ctx, r.Key, want); err != nil {
			return abort(err)
		}
	}
	newVersions := make(map[memento.Key]uint64, len(cs.Writes)+len(cs.Creates))
	for _, w := range cs.Writes {
		if err := txn.CheckedPut(ctx, w); err != nil {
			return abort(err)
		}
		newVersions[w.Key] = w.Version + 1
	}
	for _, c := range cs.Creates {
		create := c
		create.Version = 0
		if err := txn.CheckedPut(ctx, create); err != nil {
			return abort(err)
		}
		newVersions[c.Key] = 1
	}
	for _, r := range cs.Removes {
		if r.Version == 0 {
			return abort(fmt.Errorf("%w: remove of never-persisted %s", sqlstore.ErrConflict, r.Key))
		}
		if err := txn.CheckedDelete(ctx, r.Key, r.Version); err != nil {
			return abort(err)
		}
	}
	if err := txn.Commit(ctx); err != nil {
		l.rejected.Add(1)
		obsCommitsRejected.Inc()
		return sqlstore.ApplyResult{}, err
	}
	l.applied.Add(1)
	obsCommitsApplied.Inc()
	return sqlstore.ApplyResult{TxID: txn.ID(), NewVersions: newVersions}, nil
}
