package sqlstore

import (
	"context"
	"errors"
	"testing"
	"time"

	"edgeejb/internal/memento"
)

// TestApplyCommitSetsIntraBatchAttribution pins the grouped apply's
// serial-equivalence: sets apply in slice order against the state the
// earlier sets left behind, so a loser inside the batch gets a
// ConflictError naming the intra-batch winner — attribution identical
// to the sets arriving one at a time.
func TestApplyCommitSetsIntraBatchAttribution(t *testing.T) {
	s := New()
	defer s.Close()
	k := memento.Key{Table: "t", ID: "1"}
	s.Seed(memento.Memento{Key: k, Fields: memento.Fields{"n": memento.Int(10)}})

	notices, cancel := s.Subscribe(8, 0)
	defer cancel()

	write := func(n int64) memento.CommitSet {
		return memento.CommitSet{Writes: []memento.Memento{{
			Key: k, Version: 1, Fields: memento.Fields{"n": memento.Int(n)},
		}}}
	}
	out := s.ApplyCommitSets(context.Background(), []memento.CommitSet{
		write(11), // winner: row is at version 1
		write(12), // loser: version 1 is stale once the winner applies
		{Creates: []memento.Memento{{ // independent: must not be poisoned
			Key:    memento.Key{Table: "t", ID: "2"},
			Fields: memento.Fields{"n": memento.Int(2)},
		}}},
	})
	if out[0].Err != nil {
		t.Fatalf("winner: %v", out[0].Err)
	}
	if out[2].Err != nil {
		t.Fatalf("independent set rejected alongside the loser: %v", out[2].Err)
	}
	var ce *ConflictError
	if !errors.As(out[1].Err, &ce) {
		t.Fatalf("loser error = %v, want *ConflictError", out[1].Err)
	}
	if ce.Expected != 1 || ce.Actual != out[0].Res.Seq {
		t.Errorf("conflict versions = %d -> %d, want 1 -> the winner's seq %d", ce.Expected, ce.Actual, out[0].Res.Seq)
	}

	// Fan-out: exactly the two applied sets notify, in commit order, and
	// the loser never does.
	var got []uint64
	for i := 0; i < 2; i++ {
		select {
		case n := <-notices:
			got = append(got, n.Seq)
		case <-time.After(2 * time.Second):
			t.Fatalf("notice %d never arrived", i+1)
		}
	}
	if want := []uint64{out[0].Res.Seq, out[2].Res.Seq}; got[0] != want[0] || got[1] != want[1] || want[0] >= want[1] {
		t.Errorf("notices carry seqs %v, want winner then create %v", got, want)
	}
	select {
	case n := <-notices:
		t.Errorf("unexpected extra notice of commit %d", n.Seq)
	default:
	}
}
