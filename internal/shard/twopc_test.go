package shard

import (
	"context"
	"testing"
	"time"

	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
)

// TestTwoPhaseCoordinatorCrashRecovery simulates an edge coordinator
// dying between prepare and decision: both participants hold prepared
// transactions that nobody will ever decide. The participants'
// presumed-abort TTL must fire, release the locks, and leave both
// shards fully serviceable for the next coordinator.
func TestTwoPhaseCoordinatorCrashRecovery(t *testing.T) {
	r := newRig(t, 2, nil, nil, sqlstore.WithPrepareTTL(50*time.Millisecond))
	ctx := context.Background()
	idA := r.idOnShard(t, 0, "a")
	idB := r.idOnShard(t, 1, "b")
	r.seed(rmem(idA, 0, 1))
	r.seed(rmem(idB, 0, 1))

	// Phase one succeeded on both shards; then the coordinator vanished.
	for i, id := range []string{idA, idB} {
		if err := r.stores[i].Prepare(ctx, "dead-coordinator-1", memento.CommitSet{
			Writes: []memento.Memento{rmem(id, 1, 2)},
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Presumed abort unwedges both participants without any message.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if r.stores[0].PreparedCount() == 0 && r.stores[1].PreparedCount() == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, s := range r.stores {
		if n := s.PreparedCount(); n != 0 {
			t.Fatalf("shard %d still holds %d prepared txs after TTL", i, n)
		}
	}

	// Nothing was installed, and a new coordinator's 2PC over the same
	// rows goes through cleanly — the in-doubt locks are gone.
	if _, err := r.router.ApplyCommitSet(ctx, memento.CommitSet{
		Writes: []memento.Memento{rmem(idA, 1, 3), rmem(idB, 1, 3)},
	}); err != nil {
		t.Fatalf("2PC after presumed abort: %v", err)
	}
	for i, id := range []string{idA, idB} {
		if v, _ := r.stores[i].CurrentVersion(memento.Key{Table: "t", ID: id}); v != 2 {
			t.Errorf("shard %d version = %d after 2PC, want 2", i, v)
		}
	}
}
