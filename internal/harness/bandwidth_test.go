package harness

import (
	"context"
	"strings"
	"testing"
	"time"

	"edgeejb/internal/trade"
)

// TestBandwidthOrdering verifies Figure 8's qualitative result: the
// Clients/RAS architecture transmits far more bytes per interaction on
// the shared path than either edge architecture, because the whole
// presentation payload crosses it.
func TestBandwidthOrdering(t *testing.T) {
	delays := []time.Duration{0}
	scale := Scale{
		Workload: trade.GeneratorConfig{Seed: 21, Users: 10, Symbols: 20},
		Warmup:   2,
		Sessions: 6,
		Batches:  4,
	}
	pop := trade.PopulateConfig{Users: 10, Symbols: 20, HoldingsPerUser: 2}

	bytesFor := func(arch Architecture, algo Algorithm) float64 {
		t.Helper()
		sweep, err := RunSweep(context.Background(), Options{
			Arch: arch, Algo: algo, Populate: pop,
		}, scale, delays)
		if err != nil {
			t.Fatalf("%s/%s: %v", arch, algo, err)
		}
		return sweep.Points[0].SharedBytesPerInteraction()
	}

	ras := bytesFor(ClientsRAS, AlgJDBC)
	rbes := bytesFor(ESRBES, AlgCachedEJB)
	rdb := bytesFor(ESRDB, AlgJDBC)
	t.Logf("bytes/interaction: Clients/RAS %.0f, ES/RBES %.0f, ES/RDB %.0f", ras, rbes, rdb)

	// Paper: >7000 for Clients/RAS vs 3000 (ES/RBES) and 2000 (ES/RDB).
	if ras < 6000 {
		t.Errorf("Clients/RAS = %.0f bytes/interaction, want > 6000 (paper: >7000)", ras)
	}
	if !(ras > 2*rbes) {
		t.Errorf("Clients/RAS (%.0f) should far exceed ES/RBES (%.0f)", ras, rbes)
	}
	if !(ras > 2*rdb) {
		t.Errorf("Clients/RAS (%.0f) should far exceed ES/RDB (%.0f)", ras, rdb)
	}
	if rbes <= 0 || rdb <= 0 {
		t.Error("edge architectures should still transmit some shared-path traffic")
	}
}

// TestMultipleEdgeServersShareState: a write through edge 0 must be
// visible through edge 1 — the single-logical-image property across a
// cluster of cache-enhanced edge servers.
func TestMultipleEdgeServersShareState(t *testing.T) {
	topo, err := Build(Options{
		Arch:        ESRBES,
		Algo:        AlgCachedEJB,
		EdgeServers: 2,
		Populate:    trade.PopulateConfig{Users: 4, Symbols: 8, HoldingsPerUser: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	ctx := context.Background()
	user := trade.UserID(0)

	c0, err := topo.NewWebClientFor(0)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := topo.NewWebClientFor(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	// Warm edge 1's cache with the user's profile.
	if resp, err := c1.DoStep(ctx, trade.Step{Action: trade.ActionAccount, UserID: user}); err != nil || !resp.OK {
		t.Fatalf("warm read via edge 1: %v / %+v", err, resp)
	}
	// Update the profile through edge 0.
	if resp, err := c0.DoStep(ctx, trade.Step{
		Action:  trade.ActionAccountUpdate,
		UserID:  user,
		Address: "42 Invalidation Ave",
		Email:   "shared@example.test",
	}); err != nil || !resp.OK {
		t.Fatalf("update via edge 0: %v / %+v", err, resp)
	}
	// Edge 1 must serve the new state. Invalidation is asynchronous, so
	// poll briefly; even without the notice the optimistic validation
	// would prevent edge 1 from committing stale writes — here we check
	// read freshness, which the notice provides.
	deadline := time.Now().Add(3 * time.Second)
	for {
		resp, err := c1.DoStep(ctx, trade.Step{Action: trade.ActionAccount, UserID: user})
		if err != nil {
			t.Fatal(err)
		}
		if resp.OK && strings.Contains(string(resp.Body), "42 Invalidation Ave") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("edge 1 never observed edge 0's committed update")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
