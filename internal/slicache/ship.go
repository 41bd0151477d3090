package slicache

import (
	"context"
	"fmt"

	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
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

// ship validates and applies commit set cs over conn as shipping says.
// On conflict it returns an error matching sqlstore.ErrConflict. A
// whole set goes in one round trip to the store's own validator
// (sqlstore.ApplyCommitSet), which checks and applies it in one
// transaction.
func ship(ctx context.Context, conn storeapi.Conn, shipping CommitShipping, cs memento.CommitSet) (sqlstore.ApplyResult, error) {
	switch shipping {
	case WholeSet:
		return conn.ApplyCommitSet(ctx, cs)
	case PerImage:
		if cs.Mutations() == 0 {
			return conn.ApplyCommitSet(ctx, cs)
		}
		return commitPerImage(ctx, conn, cs, storeapi.ExecBatch)
	case PerStatement:
		return commitPerImage(ctx, conn, cs, storeapi.ExecSerial)
	default:
		return sqlstore.ApplyResult{}, fmt.Errorf("slicache: invalid shipping mode %d", shipping)
	}
}

// commitStmts flattens a commit set into the statements that validate
// and apply it: a version check per read, a checked put per write and
// create, a checked delete per remove, then the commit.
func commitStmts(cs memento.CommitSet) []storeapi.Stmt {
	stmts := make([]storeapi.Stmt, 0, cs.Size()+1)
	for _, r := range cs.Reads {
		stmts = append(stmts, storeapi.Stmt{Kind: storeapi.StmtCheckVersion, Key: r.Key, Version: r.Version})
	}
	for _, w := range cs.Writes {
		stmts = append(stmts, storeapi.Stmt{Kind: storeapi.StmtCheckedPut, Mem: w})
	}
	for _, c := range cs.Creates {
		c.Version = 0
		stmts = append(stmts, storeapi.Stmt{Kind: storeapi.StmtCheckedPut, Mem: c})
	}
	for _, r := range cs.Removes {
		stmts = append(stmts, storeapi.Stmt{Kind: storeapi.StmtCheckedDelete, Key: r.Key, Version: r.Version})
	}
	return append(stmts, storeapi.Stmt{Kind: storeapi.StmtCommit})
}

// commitPerImage is the combined-servers commit inside a database
// transaction (every PerStatement set, and a PerImage set that writes):
// the edge opens the transaction and runs one statement per memento
// image plus the commit on it. "The combined-servers configuration
// requires multiple database server accesses, one per memento image"
// (§4.4) — exec decides whether those accesses share one round trip
// (storeapi.ExecBatch) or pay one each (storeapi.ExecSerial). The first
// failing statement's error is returned as-is, and the transaction is
// aborted whenever the trailing commit did not run. The transaction
// begins under the set's origin; the commit's result is rebuilt from
// the number its reply carries.
func commitPerImage(ctx context.Context, conn storeapi.Conn, cs memento.CommitSet, exec storeapi.Executor) (sqlstore.ApplyResult, error) {
	txn, err := conn.Begin(sqlstore.OriginContext(ctx, cs.Origin))
	if err != nil {
		return sqlstore.ApplyResult{}, err
	}
	seq, _, err := exec.Commit(ctx, txn, commitStmts(cs))
	if err != nil {
		return sqlstore.ApplyResult{}, err
	}
	return sqlstore.Applied(cs, seq), nil
}
