package sqlstore

import (
	"context"
	"fmt"

	"edgeejb/internal/memento"
	"edgeejb/internal/obs"
)

// ApplyResult reports the outcome of an optimistic commit.
type ApplyResult struct {
	// TxID is the internal datastore transaction that applied the set.
	TxID uint64
	// NewVersions maps every written or created key to its new row
	// version, so callers (edge caches) can refresh their copies instead
	// of invalidating them.
	NewVersions map[memento.Key]uint64
}

// ApplyCommitSet validates and applies an optimistic transaction's
// commit set atomically: every read proof must still hold (the row is at
// the recorded version, or still absent), every create key must be
// absent, every remove target must still exist at its recorded version.
// On any violation the whole set is rejected with ErrConflict and the
// store is unchanged.
//
// This is the paper's "optimistic commit logic". In the split-servers
// configuration the back-end server hands it whole commit sets (via
// ApplyCommitSets, one exchange per batch); in the combined-servers
// configuration the edge server instead drives the same validation
// statement-by-statement over the wire (Tx.CheckVersion / Tx.CheckedPut
// / Tx.CheckedDelete), per memento image or as one statement batch.
func (s *Store) ApplyCommitSet(ctx context.Context, cs memento.CommitSet) (ApplyResult, error) {
	ctx, sp := obs.StartSpan(ctx, "sqlstore.apply")
	defer sp.End()
	res, notice, err := s.applyDeferred(ctx, cs)
	if err != nil {
		return ApplyResult{}, err
	}
	s.broadcast(notice)
	return res, nil
}

// ApplySetResult is one commit set's outcome within a grouped apply.
type ApplySetResult struct {
	Res ApplyResult
	Err error
}

// ApplyCommitSets validates and applies several independent commit sets
// in one pass — the backend's group commit. Sets apply in slice order,
// each as its own atomic transaction validating against the state the
// earlier sets left behind, so an intra-batch conflict is attributed to
// the earlier set's transaction exactly as if the sets had arrived
// serially: the loser's ConflictError names the winner's tx and trace.
// One set's rejection never poisons the others (per-set Err), and all
// invalidation notices fan out in a single subscriber pass after the
// last set applies.
func (s *Store) ApplyCommitSets(ctx context.Context, sets []memento.CommitSet) []ApplySetResult {
	ctx, sp := obs.StartSpan(ctx, "sqlstore.apply_group")
	defer sp.End()
	out := make([]ApplySetResult, len(sets))
	notices := make([]outgoing, 0, len(sets))
	for i := range sets {
		res, notice, err := s.applyDeferred(ctx, sets[i])
		out[i] = ApplySetResult{Res: res, Err: err}
		if err == nil {
			notices = append(notices, notice)
		}
	}
	s.broadcast(notices...)
	return out
}

// applyDeferred runs one commit set's validate-and-apply under the
// set's origin, returning the invalidation notice instead of
// broadcasting it — the caller decides whether to fan out immediately
// (single apply) or batch the fan-out (group commit).
func (s *Store) applyDeferred(ctx context.Context, cs memento.CommitSet) (ApplyResult, outgoing, error) {
	tx, err := s.begin(ctx, cs.Origin)
	if err != nil {
		return ApplyResult{}, outgoing{}, err
	}
	res, err := s.applyCommitSetTx(ctx, tx, cs)
	if err != nil {
		tx.Abort()
		s.stats.optFail.Add(1)
		return ApplyResult{}, outgoing{}, err
	}
	s.serveCommit(1)
	notice, err := tx.commit()
	if err != nil {
		return ApplyResult{}, outgoing{}, err
	}
	s.stats.optOK.Add(1)
	res.TxID = tx.ID()
	return res, notice, nil
}

func (s *Store) applyCommitSetTx(ctx context.Context, tx *Tx, cs memento.CommitSet) (ApplyResult, error) {
	// Validate reads first: cheapest failures first, and reads take only
	// shared locks.
	for _, r := range cs.Reads {
		want := r.Version
		if r.Absent {
			want = 0
		}
		if err := tx.CheckVersion(ctx, r.Key, want); err != nil {
			return ApplyResult{}, err
		}
	}
	newVersions := make(map[memento.Key]uint64, len(cs.Writes)+len(cs.Creates))
	for _, w := range cs.Writes {
		if err := tx.CheckedPut(ctx, w); err != nil {
			return ApplyResult{}, err
		}
		newVersions[w.Key] = w.Version + 1
	}
	for _, c := range cs.Creates {
		create := c
		create.Version = 0 // creates must observe key absence
		if err := tx.CheckedPut(ctx, create); err != nil {
			return ApplyResult{}, err
		}
		newVersions[c.Key] = 1
	}
	for _, r := range cs.Removes {
		if r.Version == 0 {
			return ApplyResult{}, fmt.Errorf("%w: remove of never-persisted %s", ErrConflict, r.Key)
		}
		if err := tx.CheckedDelete(ctx, r.Key, r.Version); err != nil {
			return ApplyResult{}, err
		}
	}
	return ApplyResult{NewVersions: newVersions}, nil
}
