package sqlstore

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"edgeejb/internal/memento"
	"edgeejb/internal/obs"
)

// TestConflictAttribution drives the classic first-committer-wins race
// and asserts the loser's error names the conflicting key, the winner's
// trace, and both versions — the raw material of the conflict forensics.
// The actual version is the winning commit's number.
func TestConflictAttribution(t *testing.T) {
	s := New()
	defer s.Close()
	s.Seed(mem("t", "x", 0, intFields(1))) // version 1
	key := memento.Key{Table: "t", ID: "x"}

	winnerCtx, winnerTrace := obs.WithNewTrace(context.Background())
	loserCtx, _ := obs.WithNewTrace(context.Background())

	// Both read version 1; the winner commits first.
	winRes, err := s.ApplyCommitSet(winnerCtx, memento.CommitSet{
		Writes: []memento.Memento{mem("t", "x", 1, intFields(2))},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.ApplyCommitSet(loserCtx, memento.CommitSet{
		Writes: []memento.Memento{mem("t", "x", 1, intFields(3))},
	})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("loser: got %v, want ErrConflict", err)
	}
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("loser error %T does not unwrap to *ConflictError", err)
	}
	if ce.Key != key {
		t.Errorf("conflict key = %v, want %v", ce.Key, key)
	}
	if ce.Expected != 1 || ce.Actual != winRes.Seq || winRes.Seq != 2 {
		t.Errorf("versions = (expected %d, actual %d), want (1, the winner's seq %d = 2)", ce.Expected, ce.Actual, winRes.Seq)
	}
	if ce.WinnerTrace != winnerTrace {
		t.Errorf("winner trace = %d, want %d", ce.WinnerTrace, winnerTrace)
	}
	if !strings.Contains(ce.Error(), ErrConflict.Error()) || ce.Detail == "" {
		t.Errorf("Error() = %q, Detail = %q", ce.Error(), ce.Detail)
	}
}

// TestConflictAttributionStaleRead covers the read-proof path: a stale
// read proof (not a write-write race) must also attribute the winner.
func TestConflictAttributionStaleRead(t *testing.T) {
	s := New()
	defer s.Close()
	s.Seed(mem("t", "x", 0, intFields(1)))

	winnerCtx, winnerTrace := obs.WithNewTrace(context.Background())
	if _, err := s.ApplyCommitSet(winnerCtx, memento.CommitSet{
		Writes: []memento.Memento{mem("t", "x", 1, intFields(2))},
	}); err != nil {
		t.Fatal(err)
	}

	_, err := s.ApplyCommitSet(context.Background(), memento.CommitSet{
		Reads: []memento.ReadProof{{Key: memento.Key{Table: "t", ID: "x"}, Version: 1}},
	})
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *ConflictError", err)
	}
	if ce.WinnerTrace != winnerTrace {
		t.Errorf("winner trace = %d, want %d", ce.WinnerTrace, winnerTrace)
	}
}

// TestConflictWithoutKnownWinner: a conflict against state the store
// never saw committed (a seeded row) carries zero attribution rather
// than a bogus one.
func TestConflictWithoutKnownWinner(t *testing.T) {
	s := New()
	defer s.Close()
	s.Seed(mem("t", "x", 0, intFields(1)))

	_, err := s.ApplyCommitSet(context.Background(), memento.CommitSet{
		Reads: []memento.ReadProof{{Key: memento.Key{Table: "t", ID: "x"}, Version: 9}},
	})
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *ConflictError", err)
	}
	if ce.WinnerTrace != 0 {
		t.Errorf("seeded-row conflict carries attribution: %+v", ce)
	}
}

// TestConflictOnRemovedRowNamesNoWinner: attribution lives in the row,
// so a proof of a row that a traced commit removed fails naming no
// winner trace. The removal's number is not the row's version either,
// so Actual is zero too.
func TestConflictOnRemovedRowNamesNoWinner(t *testing.T) {
	s := New()
	defer s.Close()
	s.Seed(mem("t", "x", 0, intFields(1)))
	key := memento.Key{Table: "t", ID: "x"}

	winnerCtx, winnerTrace := obs.WithNewTrace(context.Background())
	if winnerTrace == 0 {
		t.Fatal("the winner's context carries no trace")
	}
	if _, err := s.ApplyCommitSet(winnerCtx, memento.CommitSet{
		Removes: []memento.ReadProof{{Key: key, Version: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	_, err := s.ApplyCommitSet(context.Background(), memento.CommitSet{
		Reads: []memento.ReadProof{{Key: key, Version: 1}},
	})
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *ConflictError", err)
	}
	if ce.Key != key || ce.Expected != 1 || ce.Actual != 0 || ce.WinnerTrace != 0 {
		t.Errorf("conflict on the removed row = %+v, want key %v, expected 1, actual 0, no winner trace", ce, key)
	}
}

// TestNoticeStamping asserts commit notices carry the origin commit time
// and trace, the inputs to the edge's invalidation-latency histogram.
func TestNoticeStamping(t *testing.T) {
	s := New()
	defer s.Close()
	s.Seed(mem("t", "a", 0, intFields(1)))

	ch, cancel := s.Subscribe(8, 0)
	defer cancel()

	ctx, trace := obs.WithNewTrace(context.Background())
	before := time.Now()
	if _, err := s.ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{mem("t", "a", 1, intFields(2))},
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-ch:
		if n.OriginTrace != trace {
			t.Errorf("notice origin trace = %d, want %d", n.OriginTrace, trace)
		}
		if n.CommittedAt.Before(before) || n.CommittedAt.After(time.Now()) {
			t.Errorf("notice commit time %v outside test window", n.CommittedAt)
		}
	case <-time.After(time.Second):
		t.Fatal("no notice delivered")
	}
}
