package slicache

import (
	"context"
	"fmt"

	"edgeejb/internal/memento"
	"edgeejb/internal/storeapi"
)

// CommitShipping selects how a transaction's commit set reaches the
// validator, which is the architectural difference between the paper's
// two cache deployments (§2.4, §4.4):
//
//   - PerImage (combined-servers / ES/RDB): the edge server drives
//     validation against the database itself, one statement per memento
//     image plus the commit, shipped as a single statement batch — two
//     round trips (begin, batch) whatever the set size. A set that
//     writes nothing needs no database session: it goes as one
//     autocommit validation, one round trip.
//   - PerStatement: the same statement list, one round trip per
//     statement — the paper's measured combined-servers behaviour
//     (§4.4), kept as the ablation behind tradebench -batch=false.
//   - WholeSet (split-servers / ES/RBES): the edge server ships the
//     entire commit set to the back-end server in a single round trip;
//     the back-end performs the per-image work over its low-latency path
//     to the database.
type CommitShipping int

// Shipping modes.
const (
	// PerImage drives optimistic validation one statement per memento
	// image, all in one batch (combined-servers).
	PerImage CommitShipping = iota + 1
	// WholeSet ships the whole commit set in one round trip
	// (split-servers).
	WholeSet
	// PerStatement is PerImage with one round trip per statement.
	PerStatement
)

// String names the shipping mode.
func (s CommitShipping) String() string {
	switch s {
	case PerImage:
		return "per-image"
	case WholeSet:
		return "whole-set"
	case PerStatement:
		return "per-statement"
	default:
		return "invalid"
	}
}

// CommitOutcome reports a successful optimistic commit.
type CommitOutcome struct {
	// TxID identifies the datastore transaction that applied the set,
	// used to filter the cache's own commits out of the invalidation
	// stream.
	TxID uint64
	// TxIDs lists every participating transaction when the set committed
	// across several datacenter shards — each shard broadcasts its own
	// notice, so all of them must be filtered as the cache's own. Nil
	// for single-store commits.
	TxIDs []uint64
	// NewVersions maps every mutated key to its new row version.
	NewVersions map[memento.Key]uint64
}

// Loader is how the cache runtime reaches persistent state: cache-miss
// fetches, custom-finder queries, and commit-set validation. Every
// method is a short, independent datastore interaction, decoupled from
// the application transaction (§2.3).
type Loader struct {
	conn     storeapi.Conn
	shipping CommitShipping
}

// NewLoader builds a loader over a datastore handle. In the
// combined-servers configuration conn reaches the database server; in
// split-servers it reaches the back-end server.
func NewLoader(conn storeapi.Conn, shipping CommitShipping) *Loader {
	return &Loader{conn: conn, shipping: shipping}
}

// Shipping returns the loader's commit-shipping mode.
func (l *Loader) Shipping() CommitShipping { return l.shipping }

// FetchOne loads one entity's current persistent state (a cache miss).
// The result carries the footprint the access covered.
func (l *Loader) FetchOne(ctx context.Context, key memento.Key) (storeapi.GetResult, error) {
	return l.conn.AutoGet(ctx, key.Table, key.ID)
}

// RunQuery evaluates a custom finder against the persistent store, which
// is the only store guaranteed to have the entire potential result set
// (§2.2). The result carries the footprint the query covered, which is
// what the finder-result cache keys its invalidation on.
func (l *Loader) RunQuery(ctx context.Context, q memento.Query) (storeapi.QueryResult, error) {
	return l.conn.AutoQuery(ctx, q)
}

// Commit validates and applies a commit set according to the shipping
// mode. On conflict it returns an error matching sqlstore.ErrConflict.
func (l *Loader) Commit(ctx context.Context, cs memento.CommitSet) (CommitOutcome, error) {
	switch l.shipping {
	case WholeSet:
		return l.applyWhole(ctx, cs)
	case PerImage:
		if cs.Mutations() == 0 {
			// Read proofs only: no session to open, so the database
			// checks them all in one autocommit access, like a miss
			// fetch. Every proof is still checked.
			return l.applyWhole(ctx, cs)
		}
		return l.commitPerImage(ctx, cs, storeapi.ExecBatch)
	case PerStatement:
		return l.commitPerImage(ctx, cs, storeapi.ExecSerial)
	default:
		return CommitOutcome{}, fmt.Errorf("slicache: invalid shipping mode %d", l.shipping)
	}
}

// applyWhole ships the whole set in one round trip to the store's own
// validator (sqlstore.ApplyCommitSet), which checks and applies it in
// one transaction.
func (l *Loader) applyWhole(ctx context.Context, cs memento.CommitSet) (CommitOutcome, error) {
	res, err := l.conn.ApplyCommitSet(ctx, cs)
	if err != nil {
		return CommitOutcome{}, err
	}
	return CommitOutcome{TxID: res.TxID, TxIDs: res.TxIDs, NewVersions: res.NewVersions}, nil
}

// commitStmts flattens a commit set into the statements that validate
// and apply it: a version check per read, a checked put per write and
// create, a checked delete per remove, then the commit. newVersions maps
// every put key to the row version it will carry once the list has run;
// it is nil for a set that puts nothing, as over the wire.
func commitStmts(cs memento.CommitSet) (stmts []storeapi.Stmt, newVersions map[memento.Key]uint64) {
	stmts = make([]storeapi.Stmt, 0, cs.Size()+1)
	if puts := len(cs.Writes) + len(cs.Creates); puts > 0 {
		newVersions = make(map[memento.Key]uint64, puts)
	}
	for _, r := range cs.Reads {
		want := r.Version
		if r.Absent {
			want = 0
		}
		stmts = append(stmts, storeapi.Stmt{Kind: storeapi.StmtCheckVersion, Key: r.Key, Version: want})
	}
	for _, w := range cs.Writes {
		stmts = append(stmts, storeapi.Stmt{Kind: storeapi.StmtCheckedPut, Mem: w})
		newVersions[w.Key] = w.Version + 1
	}
	for _, c := range cs.Creates {
		c.Version = 0
		stmts = append(stmts, storeapi.Stmt{Kind: storeapi.StmtCheckedPut, Mem: c})
		newVersions[c.Key] = 1
	}
	for _, r := range cs.Removes {
		stmts = append(stmts, storeapi.Stmt{Kind: storeapi.StmtCheckedDelete, Key: r.Key, Version: r.Version})
	}
	return append(stmts, storeapi.Stmt{Kind: storeapi.StmtCommit}), newVersions
}

// commitPerImage is the combined-servers commit inside a database
// transaction (every PerStatement set, and a PerImage set that writes):
// the edge opens the transaction and runs one statement per memento
// image plus the commit on it. "The combined-servers configuration
// requires multiple database server accesses, one per memento image"
// (§4.4) — exec decides whether those accesses share one round trip
// (storeapi.ExecBatch) or pay one each (storeapi.ExecSerial). The first
// failing statement's error is returned as-is, and the transaction is
// aborted whenever the trailing commit did not run.
func (l *Loader) commitPerImage(ctx context.Context, cs memento.CommitSet,
	exec func(context.Context, storeapi.Txn, []storeapi.Stmt) ([]storeapi.StmtResult, error),
) (CommitOutcome, error) {
	txn, err := l.conn.Begin(ctx)
	if err != nil {
		return CommitOutcome{}, err
	}
	stmts, newVersions := commitStmts(cs)
	results, err := exec(ctx, txn, stmts)
	if err != nil {
		_ = txn.Abort(ctx)
		return CommitOutcome{}, err
	}
	for i, r := range results {
		if r.Err == nil {
			continue
		}
		if i < len(stmts)-1 {
			_ = txn.Abort(ctx)
		}
		return CommitOutcome{}, r.Err
	}
	return CommitOutcome{TxID: txn.ID(), NewVersions: newVersions}, nil
}
