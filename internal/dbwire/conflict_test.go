package dbwire

import (
	"context"
	"errors"
	"testing"

	"edgeejb/internal/memento"
	"edgeejb/internal/obs"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// TestConflictAttributionSurvivesTheWire: a commit rejected at the
// store comes back over the protocol as a *sqlstore.ConflictError with
// the key, versions, and winner attribution intact, not just as the
// bare ErrConflict sentinel. The actual version is the winning commit's
// number.
func TestConflictAttributionSurvivesTheWire(t *testing.T) {
	store, client := newPair(t)
	seed(store, "t", "x", 1)
	ctx := context.Background()

	winnerCtx, winnerTrace := obs.WithNewTrace(context.Background())
	winRes, err := store.ApplyCommitSet(winnerCtx, memento.CommitSet{
		Writes: []memento.Memento{{
			Key:     memento.Key{Table: "t", ID: "x"},
			Version: 1,
			Fields:  memento.Fields{"v": memento.Int(2)},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}

	_, err = client.ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{{
			Key:     memento.Key{Table: "t", ID: "x"},
			Version: 1,
			Fields:  memento.Fields{"v": memento.Int(3)},
		}},
	})
	if !errors.Is(err, sqlstore.ErrConflict) {
		t.Fatalf("got %v, want ErrConflict", err)
	}
	var ce *sqlstore.ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("wire error %T lost the conflict attribution", err)
	}
	if ce.Key != (memento.Key{Table: "t", ID: "x"}) {
		t.Errorf("key = %v", ce.Key)
	}
	if ce.Expected != 1 || ce.Actual != winRes.Seq {
		t.Errorf("versions = (%d, %d), want (1, the winner's Seq %d)", ce.Expected, ce.Actual, winRes.Seq)
	}
	if ce.WinnerTrace != winnerTrace {
		t.Errorf("winner trace = %d, want %d", ce.WinnerTrace, winnerTrace)
	}
	if ce.Detail == "" {
		t.Error("conflict detail lost on the wire")
	}
}

// TestConflictAttributionSurvivesRelay covers the two-hop composition
// the split-servers back end uses: edge → backend server → store. The
// middle hop decodes the conflict and must re-encode it intact.
func TestConflictAttributionSurvivesRelay(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	seed(store, "t", "x", 1)

	inner := NewServer(storeapi.Local(store))
	if err := inner.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	mid := Dial(inner.Addr())
	defer mid.Close()
	outer := NewServer(mid)
	if err := outer.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer outer.Close()
	client := Dial(outer.Addr())
	defer client.Close()

	winnerCtx, winnerTrace := obs.WithNewTrace(context.Background())
	if _, err := store.ApplyCommitSet(winnerCtx, memento.CommitSet{
		Writes: []memento.Memento{{
			Key:     memento.Key{Table: "t", ID: "x"},
			Version: 1,
			Fields:  memento.Fields{"v": memento.Int(2)},
		}},
	}); err != nil {
		t.Fatal(err)
	}

	_, err := client.ApplyCommitSet(context.Background(), memento.CommitSet{
		Reads: []memento.ReadProof{{Key: memento.Key{Table: "t", ID: "x"}, Version: 1}},
	})
	var ce *sqlstore.ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("relayed error %T lost the conflict attribution (%v)", err, err)
	}
	if ce.WinnerTrace != winnerTrace {
		t.Errorf("winner trace = %d, want %d after relay", ce.WinnerTrace, winnerTrace)
	}
}
