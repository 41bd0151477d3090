package harness

import (
	"context"
	"strings"
	"testing"
	"time"

	"edgeejb/internal/trade"
)

// TestESRDBMultiEdgeInvalidation: in the shared-database architecture,
// edge caches subscribe to the DATABASE's invalidation stream directly.
// An update committed through edge 0 must invalidate edge 1's stale
// entry even with no back-end server in the deployment.
func TestESRDBMultiEdgeInvalidation(t *testing.T) {
	topo, err := Build(Options{
		Arch:        ESRDB,
		Algo:        AlgCachedEJB,
		EdgeServers: 2,
		Populate:    trade.PopulateConfig{Users: 4, Symbols: 8, HoldingsPerUser: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	ctx := context.Background()
	user := trade.UserID(1)

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

	if resp, err := c1.DoStep(ctx, trade.Step{Action: trade.ActionAccount, UserID: user}); err != nil || !resp.OK {
		t.Fatalf("warm edge 1: %v / %+v", err, resp)
	}
	if resp, err := c0.DoStep(ctx, trade.Step{
		Action: trade.ActionAccountUpdate, UserID: user,
		Address: "9 Shared DB Way", Email: "rdb@example.test",
	}); err != nil || !resp.OK {
		t.Fatalf("update via edge 0: %v / %+v", err, resp)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		resp, err := c1.DoStep(ctx, trade.Step{Action: trade.ActionAccount, UserID: user})
		if err != nil {
			t.Fatal(err)
		}
		if resp.OK && strings.Contains(string(resp.Body), "9 Shared DB Way") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("edge 1 never saw the update committed through edge 0")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSweepRequiresDelays: RunSweep validates its inputs.
func TestSweepRequiresDelays(t *testing.T) {
	_, err := RunSweep(context.Background(), Options{
		Arch: ClientsRAS, Algo: AlgJDBC,
		Populate: trade.PopulateConfig{Users: 2, Symbols: 2},
	}, RunOptions{})
	if err == nil {
		t.Fatal("empty delay sweep accepted")
	}
}

// TestCacheOptionsReachManagers: ablation options passed at Build time
// must configure every edge's manager.
func TestCacheOptionsReachManagers(t *testing.T) {
	topo, err := Build(Options{
		Arch:     ESRBES,
		Algo:     AlgCachedEJB,
		Populate: trade.PopulateConfig{Users: 2, Symbols: 2, HoldingsPerUser: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	if topo.Managers[0] == nil {
		t.Fatal("cached topology missing manager")
	}
	if got := topo.Managers[0].Shipping(); got.String() != "whole-set" {
		t.Errorf("ES/RBES shipping = %v, want whole-set", got)
	}

	// ES/RDB drives the commit itself: one statement batch, or with
	// batching off one round trip per statement.
	for batch, want := range map[bool]string{true: "per-image", false: "per-statement"} {
		topo2, err := Build(Options{
			Arch:     ESRDB,
			Algo:     AlgCachedEJB,
			Batch:    batch,
			Populate: trade.PopulateConfig{Users: 2, Symbols: 2, HoldingsPerUser: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer topo2.Close()
		if got := topo2.Managers[0].Shipping(); got.String() != want {
			t.Errorf("ES/RDB shipping with Batch=%v = %v, want %s", batch, got, want)
		}
	}
	// Non-cached algorithms have nil manager slots.
	topo3, err := Build(Options{
		Arch:     ESRDB,
		Algo:     AlgJDBC,
		Populate: trade.PopulateConfig{Users: 2, Symbols: 2, HoldingsPerUser: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer topo3.Close()
	if topo3.Managers[0] != nil {
		t.Error("JDBC topology has a cache manager")
	}
}
