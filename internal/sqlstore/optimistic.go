package sqlstore

import (
	"context"
	"fmt"

	"edgeejb/internal/memento"
	"edgeejb/internal/obs"
)

// ApplyResult reports the outcome of an optimistic commit.
type ApplyResult struct {
	// Seq is the number the commit took from its store's commit counter:
	// the version of every row it wrote. It is zero for a set that wrote
	// nothing, and for one committed on several shards, each of which
	// numbers its own commits (NewVersions holds each key's).
	Seq uint64
	// NewVersions maps every written or created key to its new row
	// version, so callers (edge caches) can refresh their copies instead
	// of invalidating them. Nil when the set put nothing.
	NewVersions map[memento.Key]uint64
}

// Applied is the result of cs committed as number seq: every key it
// wrote or created now carries version seq. Whoever holds a committed
// set rebuilds its result this way, so a commit reply carries one
// number, not a version per key.
func Applied(cs memento.CommitSet, seq uint64) ApplyResult {
	res := ApplyResult{Seq: seq}
	if n := len(cs.Writes) + len(cs.Creates); n > 0 {
		res.NewVersions = make(map[memento.Key]uint64, n)
		for _, w := range cs.Writes {
			res.NewVersions[w.Key] = seq
		}
		for _, c := range cs.Creates {
			res.NewVersions[c.Key] = seq
		}
	}
	return res
}

// ApplyCommitSet validates and applies an optimistic transaction's
// commit set atomically: every read proof must still hold (the row is at
// the recorded version, or still absent), every create key must be
// absent, every remove target must still exist at its recorded version.
// On any violation the whole set is rejected with ErrConflict and the
// store is unchanged.
//
// This is the paper's "optimistic commit logic". In the split-servers
// configuration the back-end server hands it each whole commit set in
// one exchange; in the combined-servers configuration the edge server
// instead drives the same validation statement-by-statement over the
// wire (Tx.CheckVersion / Tx.CheckedPut / Tx.CheckedDelete), per memento
// image or as one statement batch.
func (s *Store) ApplyCommitSet(ctx context.Context, cs memento.CommitSet) (ApplyResult, error) {
	ctx, sp := obs.StartSpan(ctx, "sqlstore.apply")
	defer sp.End()
	tx, err := s.begin(ctx, cs.Origin)
	if err != nil {
		return ApplyResult{}, err
	}
	if err := s.stage(ctx, tx, cs); err != nil {
		tx.Abort()
		s.stats.optFail.Add(1)
		return ApplyResult{}, err
	}
	s.serveCommit()
	if err := tx.Commit(); err != nil {
		return ApplyResult{}, err
	}
	s.stats.optOK.Add(1)
	return Applied(cs, tx.Seq()), nil
}

// ApplySetResult is one commit set's outcome among several applied by
// one storeapi.Conn.ApplyCommitSets call.
type ApplySetResult struct {
	Res ApplyResult
	Err error
}

// stage validates cs inside tx and buffers its writes there: a version
// check per read, a checked put per write and create, a checked delete
// per remove.
func (s *Store) stage(ctx context.Context, tx *Tx, cs memento.CommitSet) error {
	// Validate reads first: cheapest failures first, and reads take only
	// shared locks.
	for _, r := range cs.Reads {
		want := r.Version
		if r.Absent {
			want = 0
		}
		if err := tx.CheckVersion(ctx, r.Key, want); err != nil {
			return err
		}
	}
	for _, w := range cs.Writes {
		if err := tx.CheckedPut(ctx, w); err != nil {
			return err
		}
	}
	for _, c := range cs.Creates {
		create := c
		create.Version = 0 // creates must observe key absence
		if err := tx.CheckedPut(ctx, create); err != nil {
			return err
		}
	}
	for _, r := range cs.Removes {
		if r.Version == 0 {
			return fmt.Errorf("%w: remove of never-persisted %s", ErrConflict, r.Key)
		}
		if err := tx.CheckedDelete(ctx, r.Key, r.Version); err != nil {
			return err
		}
	}
	return nil
}
