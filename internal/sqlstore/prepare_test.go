package sqlstore

import (
	"context"
	"errors"
	"testing"
	"time"

	"edgeejb/internal/memento"
)

func prepKey(id string) memento.Key { return memento.Key{Table: "t", ID: id} }

func TestPrepareCommitPrepared(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	s.Seed(mem("t", "w", 0, intFields(1)))

	cs := memento.CommitSet{
		Writes:  []memento.Memento{mem("t", "w", 1, intFields(2))},
		Creates: []memento.Memento{mem("t", "c", 0, intFields(3))},
	}
	if err := s.Prepare(ctx, "g1", cs); err != nil {
		t.Fatal(err)
	}
	if n := s.PreparedCount(); n != 1 {
		t.Fatalf("prepared count = %d, want 1", n)
	}
	// Nothing is visible until the decision.
	if v, _ := s.CurrentVersion(prepKey("w")); v != 1 {
		t.Fatalf("prepare leaked: version = %d, want 1", v)
	}

	res, err := s.CommitPrepared(ctx, "g1")
	if err != nil {
		t.Fatal(err)
	}
	// The seed was commit 1; the prepared set commits as 2. The result
	// carries the number only: the coordinator holds the set.
	if res.Seq != 2 || res.NewVersions != nil {
		t.Errorf("result = %+v, want Seq 2 and no NewVersions", res)
	}
	if v, _ := s.CurrentVersion(prepKey("w")); v != res.Seq {
		t.Errorf("committed version = %d, want %d", v, res.Seq)
	}
	if v, _ := s.CurrentVersion(prepKey("c")); v != res.Seq {
		t.Errorf("created version = %d, want %d", v, res.Seq)
	}
	if n := s.PreparedCount(); n != 0 {
		t.Errorf("prepared count = %d after commit, want 0", n)
	}
	// The decision is not idempotent: the gid is forgotten.
	if _, err := s.CommitPrepared(ctx, "g1"); !errors.Is(err, ErrConflict) {
		t.Errorf("second CommitPrepared: got %v, want ErrConflict", err)
	}
}

func TestPrepareAbortPrepared(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	s.Seed(mem("t", "w", 0, intFields(1)))

	cs := memento.CommitSet{Writes: []memento.Memento{mem("t", "w", 1, intFields(2))}}
	if err := s.Prepare(ctx, "g1", cs); err != nil {
		t.Fatal(err)
	}
	if err := s.AbortPrepared(ctx, "g1"); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.CurrentVersion(prepKey("w")); v != 1 {
		t.Errorf("abort leaked: version = %d, want 1", v)
	}
	// Aborting an unknown gid is presumed-abort-idempotent.
	if err := s.AbortPrepared(ctx, "nope"); err != nil {
		t.Errorf("abort of unknown gid: %v, want nil", err)
	}
	// After abort the row is unlocked: a fresh commit goes through.
	if _, err := s.ApplyCommitSet(ctx, cs); err != nil {
		t.Fatalf("commit after abort: %v", err)
	}
}

func TestPrepareConflictVotesNo(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	s.Seed(mem("t", "w", 0, intFields(1)))

	stale := memento.CommitSet{Writes: []memento.Memento{mem("t", "w", 9, intFields(2))}}
	if err := s.Prepare(ctx, "g1", stale); !errors.Is(err, ErrConflict) {
		t.Fatalf("got %v, want ErrConflict", err)
	}
	if n := s.PreparedCount(); n != 0 {
		t.Fatalf("a no vote must hold nothing: prepared count = %d", n)
	}
	// The no vote released its locks.
	ok := memento.CommitSet{Writes: []memento.Memento{mem("t", "w", 1, intFields(2))}}
	if _, err := s.ApplyCommitSet(ctx, ok); err != nil {
		t.Fatalf("commit after no vote: %v", err)
	}
}

func TestPrepareDuplicateGid(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	s.Seed(mem("t", "a", 0, intFields(1)), mem("t", "b", 0, intFields(1)))

	csA := memento.CommitSet{Writes: []memento.Memento{mem("t", "a", 1, intFields(2))}}
	csB := memento.CommitSet{Writes: []memento.Memento{mem("t", "b", 1, intFields(2))}}
	if err := s.Prepare(ctx, "g1", csA); err != nil {
		t.Fatal(err)
	}
	if err := s.Prepare(ctx, "g1", csB); !errors.Is(err, ErrConflict) {
		t.Fatalf("duplicate gid: got %v, want ErrConflict", err)
	}
	// The first prepare is still decided normally.
	if _, err := s.CommitPrepared(ctx, "g1"); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.CurrentVersion(prepKey("a")); v != 2 {
		t.Errorf("version = %d, want 2", v)
	}
}

// TestPresumedAbortUnwedgesShard is the coordinator-crash scenario: a
// participant prepared (holding locks) never hears the decision. The
// prepare TTL fires, the transaction presumed-aborts, and the rows it
// held become writable again — the shard unwedges by itself.
func TestPresumedAbortUnwedgesShard(t *testing.T) {
	s := New(WithPrepareTTL(50 * time.Millisecond))
	defer s.Close()
	ctx := context.Background()
	s.Seed(mem("t", "w", 0, intFields(1)))

	cs := memento.CommitSet{Writes: []memento.Memento{mem("t", "w", 1, intFields(2))}}
	if err := s.Prepare(ctx, "orphan", cs); err != nil {
		t.Fatal(err)
	}

	// The coordinator "crashed": nobody decides. Wait out the TTL.
	deadline := time.Now().Add(5 * time.Second)
	for s.PreparedCount() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := s.PreparedCount(); n != 0 {
		t.Fatalf("prepared count = %d after TTL, want 0", n)
	}

	// Nothing was installed, and the rows are writable again.
	if v, _ := s.CurrentVersion(prepKey("w")); v != 1 {
		t.Fatalf("presumed abort leaked: version = %d, want 1", v)
	}
	if _, err := s.ApplyCommitSet(ctx, cs); err != nil {
		t.Fatalf("commit after presumed abort: %v", err)
	}
	// A late decision finds the gid gone: commit fails (the coordinator
	// learns the outcome), abort succeeds silently.
	if _, err := s.CommitPrepared(ctx, "orphan"); !errors.Is(err, ErrConflict) {
		t.Errorf("late commit: got %v, want ErrConflict", err)
	}
	if err := s.AbortPrepared(ctx, "orphan"); err != nil {
		t.Errorf("late abort: %v, want nil", err)
	}
}

func TestCloseAbortsPrepared(t *testing.T) {
	s := New()
	ctx := context.Background()
	s.Seed(mem("t", "w", 0, intFields(1)))
	cs := memento.CommitSet{Writes: []memento.Memento{mem("t", "w", 1, intFields(2))}}
	if err := s.Prepare(ctx, "g1", cs); err != nil {
		t.Fatal(err)
	}
	s.Close() // must not deadlock on the parked transaction's locks
	if n := s.PreparedCount(); n != 0 {
		t.Errorf("prepared count = %d after Close, want 0", n)
	}
}
