package storeapi

import (
	"context"
	"fmt"

	"edgeejb/internal/memento"
	"edgeejb/internal/obs"
	"edgeejb/internal/sqlstore"
)

// GetResult carries one row read.
type GetResult struct {
	Mem memento.Memento
}

// QueryResult carries a finder's rows. An edge's finder cache works out
// what the result set covered from the query and these rows.
type QueryResult struct {
	Mems []memento.Memento
	// Accesses is the number of separate store reads that produced Mems
	// when there was more than one: a shard router's scatter sets it to
	// the number of shards it asked. Zero means one read at one instant.
	// It is set on the edge and never crosses the wire.
	Accesses int
}

// Txn is one datastore transaction. Its statement methods are
// implemented once, by StmtTxn, over one Exec method per kind of
// transaction: Local's runs a statement on the store (no network),
// CountingConn's counts it, and dbwire's remote transaction sends it as
// one round trip (the property that makes per-statement access
// latency-sensitive).
type Txn interface {
	// ID returns the datastore-assigned transaction identifier. It is
	// stable across tiers: a transaction driven through the back-end
	// server reports the database server's identifier.
	ID() uint64
	// Get reads a row under a shared lock; sqlstore.ErrNotFound if absent.
	Get(ctx context.Context, table, id string) (GetResult, error)
	// GetForUpdate reads a row under an exclusive lock.
	GetForUpdate(ctx context.Context, table, id string) (GetResult, error)
	// Put upserts a row (pessimistic; version assigned at commit).
	Put(ctx context.Context, m memento.Memento) error
	// Insert creates a row; sqlstore.ErrExists if present.
	Insert(ctx context.Context, m memento.Memento) error
	// Delete removes a row; sqlstore.ErrNotFound if absent.
	Delete(ctx context.Context, table, id string) error
	// Query runs a predicate query under a table shared lock.
	Query(ctx context.Context, q memento.Query) (QueryResult, error)
	// CheckVersion verifies a row is still at version (0 = still absent).
	CheckVersion(ctx context.Context, key memento.Key, version uint64) error
	// CheckedPut updates a row iff it is still at m.Version (0 = insert).
	CheckedPut(ctx context.Context, m memento.Memento) error
	// CheckedDelete removes a row iff it is still at version.
	CheckedDelete(ctx context.Context, key memento.Key, version uint64) error
	// Commit atomically installs buffered writes and releases locks. A
	// transaction that is also an Execer reports the number its commit
	// took in Exec's StmtResult.Seq; ExecStmt also recovers it through
	// a decorator that is no Execer.
	Commit(ctx context.Context) error
	// Abort discards buffered writes and releases locks.
	Abort(ctx context.Context) error
}

// Conn is a handle to a datastore (local or remote).
type Conn interface {
	// Begin starts a transaction. Its commit's notice skips the
	// subscriber of the context's origin (sqlstore.OriginContext).
	Begin(ctx context.Context) (Txn, error)
	// AutoGet reads one row in an autocommit transaction: the "separate
	// (non-nested) short transaction ... committed immediately after the
	// access completes" that the cache runtime uses for misses (§2.3).
	// On remote implementations it costs exactly one round trip.
	AutoGet(ctx context.Context, table, id string) (GetResult, error)
	// AutoQuery runs one predicate query in an autocommit transaction —
	// one round trip on remote implementations.
	AutoQuery(ctx context.Context, q memento.Query) (QueryResult, error)
	// ApplyCommitSet validates and applies a whole optimistic commit set
	// atomically — a single round trip on remote implementations.
	ApplyCommitSet(ctx context.Context, cs memento.CommitSet) (sqlstore.ApplyResult, error)
	// ApplyCommitSets applies several independent commit sets, each
	// through ApplyCommitSet in slice order (ApplyEach), and returns one
	// result per set. No product path calls it and no wire op carries
	// it: it is kept only because the repository benchmark's frozen
	// surface names it (ROADMAP items 20 and 29).
	ApplyCommitSets(ctx context.Context, sets []memento.CommitSet) ([]sqlstore.ApplySetResult, error)
	// Subscribe streams commit notices until cancel is called; the
	// channel closes on cancel or connection loss. Commits made under
	// the context's origin (sqlstore.OriginContext) are not streamed; a
	// keys-only context (sqlstore.KeysOnlyContext) lets a remote source
	// send each write descriptor without its images.
	Subscribe(ctx context.Context) (<-chan sqlstore.Notice, func(), error)
	// Close releases the handle's resources.
	Close() error
}

// Preparer is the optional two-phase-commit participant surface a Conn
// may expose alongside the one-shot ApplyCommitSet path. The shard
// router type-asserts for it when a commit set spans several shards.
// Every product Conn implements it (the local store, dbwire's client,
// the back-end server's logic); the only one that doesn't is a wrapper
// that hides it, and a tier behind such a wrapper refuses to prepare,
// which the coordinator reads as a no vote.
type Preparer interface {
	// Prepare validates a commit sub-set and holds its locks under gid
	// until CommitPrepared or AbortPrepared decides it (or the
	// participant's presumed-abort TTL expires). An error is a no vote:
	// nothing is held and the coordinator must abort the other
	// participants.
	Prepare(ctx context.Context, gid string, cs memento.CommitSet) error
	// CommitPrepared installs the writes prepared under gid. An unknown
	// gid (expired or never prepared) fails with an error matching
	// sqlstore.ErrConflict.
	CommitPrepared(ctx context.Context, gid string) (sqlstore.ApplyResult, error)
	// AbortPrepared discards the transaction prepared under gid.
	// Aborting an unknown gid succeeds (presumed abort already did it).
	AbortPrepared(ctx context.Context, gid string) error
}

// local adapts an in-process *sqlstore.Store to Conn. Every operation
// records a "sqlstore.<op>" trace span: the adapter only ever runs in
// the process that owns the store — the database tier — so these spans
// give assembled traces their db-tier leaves, one per statement. A
// statement-by-statement commit (the pessimistic algorithms, or
// combined-servers per-image shipping) therefore renders as a run of
// db spans, one per wire round trip — the per-statement latency
// amplification the paper's Figure 7 argues about, visible in a
// waterfall.
type local struct {
	store *sqlstore.Store
}

// Local wraps an in-process store as a Conn. Closing the Conn does not
// close the underlying store (the store may be shared).
func Local(s *sqlstore.Store) Conn { return &local{store: s} }

func (l *local) Begin(ctx context.Context) (Txn, error) {
	ctx, sp := obs.StartSpan(ctx, "sqlstore.begin")
	defer sp.End()
	tx, err := l.store.Begin(ctx)
	if err != nil {
		return nil, err
	}
	return &StmtTxn{TxID: tx.ID(), Execer: localTxn{tx}}, nil
}

func (l *local) ApplyCommitSet(ctx context.Context, cs memento.CommitSet) (sqlstore.ApplyResult, error) {
	return l.store.ApplyCommitSet(ctx, cs)
}

func (l *local) ApplyCommitSets(ctx context.Context, sets []memento.CommitSet) ([]sqlstore.ApplySetResult, error) {
	return ApplyEach(ctx, l, sets)
}

// ApplyEach is every Conn's ApplyCommitSets: each set goes through
// conn.ApplyCommitSet in slice order, so a set validates against the
// state the earlier ones left and a loser's conflict names the earlier
// winner, as if the sets had arrived one at a time. One set's rejection
// never stops the others; the error return is always nil.
func ApplyEach(ctx context.Context, conn Conn, sets []memento.CommitSet) ([]sqlstore.ApplySetResult, error) {
	out := make([]sqlstore.ApplySetResult, len(sets))
	for i := range sets {
		out[i].Res, out[i].Err = conn.ApplyCommitSet(ctx, sets[i])
	}
	return out, nil
}

func (l *local) AutoGet(ctx context.Context, table, id string) (GetResult, error) {
	ctx, sp := obs.StartSpan(ctx, "sqlstore.autoget")
	defer sp.End()
	tx, err := l.store.Begin(ctx)
	if err != nil {
		return GetResult{}, err
	}
	m, err := tx.Get(ctx, table, id)
	if err != nil {
		tx.Abort()
		return GetResult{}, err
	}
	if err := tx.Commit(); err != nil {
		return GetResult{}, err
	}
	return GetResult{Mem: m}, nil
}

func (l *local) AutoQuery(ctx context.Context, q memento.Query) (QueryResult, error) {
	ctx, sp := obs.StartSpan(ctx, "sqlstore.autoquery")
	defer sp.End()
	tx, err := l.store.Begin(ctx)
	if err != nil {
		return QueryResult{}, err
	}
	mems, err := tx.Query(ctx, q)
	if err != nil {
		tx.Abort()
		return QueryResult{}, err
	}
	if err := tx.Commit(); err != nil {
		return QueryResult{}, err
	}
	return QueryResult{Mems: mems}, nil
}

func (l *local) Prepare(ctx context.Context, gid string, cs memento.CommitSet) error {
	return l.store.Prepare(ctx, gid, cs)
}

func (l *local) CommitPrepared(ctx context.Context, gid string) (sqlstore.ApplyResult, error) {
	return l.store.CommitPrepared(ctx, gid)
}

func (l *local) AbortPrepared(ctx context.Context, gid string) error {
	return l.store.AbortPrepared(ctx, gid)
}

var _ Preparer = (*local)(nil)

func (l *local) Subscribe(ctx context.Context) (<-chan sqlstore.Notice, func(), error) {
	ch, cancel := l.store.Subscribe(0, sqlstore.OriginOf(ctx))
	return ch, cancel, nil
}

func (l *local) Close() error { return nil }

// localTxn runs statements on one store transaction.
type localTxn struct{ tx *sqlstore.Tx }

// Exec runs st under its "sqlstore.<statement>" span (Abort has none).
func (t localTxn) Exec(ctx context.Context, st Stmt) StmtResult {
	var r StmtResult
	var sp *obs.Span
	switch st.Kind {
	case StmtGet:
		ctx, sp = obs.StartSpan(ctx, "sqlstore.get")
		r.Get.Mem, r.Err = t.tx.Get(ctx, st.Table, st.ID)
	case StmtGetForUpdate:
		ctx, sp = obs.StartSpan(ctx, "sqlstore.get_for_update")
		r.Get.Mem, r.Err = t.tx.GetForUpdate(ctx, st.Table, st.ID)
	case StmtQuery:
		ctx, sp = obs.StartSpan(ctx, "sqlstore.query")
		r.Q.Mems, r.Err = t.tx.Query(ctx, st.Query)
	case StmtPut:
		ctx, sp = obs.StartSpan(ctx, "sqlstore.put")
		r.Err = t.tx.Put(ctx, st.Mem)
	case StmtInsert:
		ctx, sp = obs.StartSpan(ctx, "sqlstore.insert")
		r.Err = t.tx.Insert(ctx, st.Mem)
	case StmtDelete:
		ctx, sp = obs.StartSpan(ctx, "sqlstore.delete")
		r.Err = t.tx.Delete(ctx, st.Table, st.ID)
	case StmtCheckVersion:
		ctx, sp = obs.StartSpan(ctx, "sqlstore.check_version")
		r.Err = t.tx.CheckVersion(ctx, st.Key, st.Version)
	case StmtCheckedPut:
		ctx, sp = obs.StartSpan(ctx, "sqlstore.checked_put")
		r.Err = t.tx.CheckedPut(ctx, st.Mem)
	case StmtCheckedDelete:
		ctx, sp = obs.StartSpan(ctx, "sqlstore.checked_delete")
		r.Err = t.tx.CheckedDelete(ctx, st.Key, st.Version)
	case StmtCommit:
		_, sp = obs.StartSpan(ctx, "sqlstore.commit_tx")
		r.Err = t.tx.Commit()
		r.Seq = t.tx.Seq()
	case StmtAbort:
		t.tx.Abort()
	default:
		r.Err = fmt.Errorf("storeapi: unknown statement kind %d", st.Kind)
	}
	sp.End()
	if r.Err != nil {
		return StmtResult{Err: r.Err}
	}
	return r
}
