package harness

import (
	"context"
	"strings"
	"testing"
	"time"

	"edgeejb/internal/appserver"
	"edgeejb/internal/backend"
	"edgeejb/internal/deploy"
	"edgeejb/internal/storeapi"
	"edgeejb/internal/trade"
)

// TestESRDBMultiEdgeInvalidation: in the shared-database architecture,
// edge caches subscribe to the DATABASE's invalidation stream directly.
// An update committed through either edge must invalidate the other
// edge's stale entry even with no back-end server in the deployment,
// and each edge is pushed exactly the other edge's write sets.
func TestESRDBMultiEdgeInvalidation(t *testing.T) {
	multiEdgeInvalidation(t, ESRDB)
}

// TestESRBESMultiEdgeInvalidation is the split-servers twin: the
// notices reach each edge through the back-end server.
func TestESRBESMultiEdgeInvalidation(t *testing.T) {
	multiEdgeInvalidation(t, ESRBES)
}

// multiEdgeInvalidation warms both edges on one account, then updates
// it through edge 0 and through edge 1 in turn; each time the other
// edge must serve the new address. Account reads write nothing, so each
// edge committed one write set, and each edge's datastore client must
// have been pushed exactly one notice: the other edge's. The store sent
// nothing else.
func multiEdgeInvalidation(t *testing.T, arch Architecture) {
	topo, err := Build(Options{
		Arch:        arch,
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

	var clients [2]*appserver.Client
	for i := range clients {
		c, err := topo.NewWebClientFor(i)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
		if resp, err := c.DoStep(ctx, trade.Step{Action: trade.ActionAccount, UserID: user}); err != nil || !resp.OK {
			t.Fatalf("warm edge %d: %v / %+v", i, err, resp)
		}
	}
	for writer, addr := range []string{"9 Shared DB Way", "10 Other Edge Road"} {
		reader := clients[1-writer]
		if resp, err := clients[writer].DoStep(ctx, trade.Step{
			Action: trade.ActionAccountUpdate, UserID: user,
			Address: addr, Email: "rdb@example.test",
		}); err != nil || !resp.OK {
			t.Fatalf("update via edge %d: %v / %+v", writer, err, resp)
		}
		deadline := time.Now().Add(3 * time.Second)
		for {
			resp, err := reader.DoStep(ctx, trade.Step{Action: trade.ActionAccount, UserID: user})
			if err != nil {
				t.Fatal(err)
			}
			if resp.OK && strings.Contains(string(resp.Body), addr) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("edge %d never saw the update committed through edge %d", 1-writer, writer)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	if err := topo.awaitNotices(); err != nil {
		t.Fatal(err)
	}
	for i, c := range topo.DBClients {
		if p := c.WireStats().Pushes; p != 1 {
			t.Errorf("edge %d was pushed %d notices, want the other edge's 1 write set", i, p)
		}
	}
	if sent := topo.Stores[0].Stats().NoticesSent; sent != 2 {
		t.Errorf("store sent %d notices, want 2: each write set to the other edge only", sent)
	}
}

// TestOneEdgeHearsNoPushes: the only edge of a deployment is pushed
// nothing through a whole run of the Trade workload, writes included,
// because every commit is its own. Under ES/RBES the back-end server
// then restarts, the edge resubscribes, and a second run is pushed
// nothing either: the origin survives the resubscribe.
func TestOneEdgeHearsNoPushes(t *testing.T) {
	delays := []time.Duration{0}
	scale := Scale{
		Workload: trade.GeneratorConfig{Seed: 34, Users: 6, Symbols: 10},
		Warmup:   1,
		Sessions: 4,
		Batches:  2,
	}
	pop := trade.PopulateConfig{Users: 6, Symbols: 10, HoldingsPerUser: 2}
	for _, arch := range []Architecture{ESRDB, ESRBES} {
		t.Run(arch.String(), func(t *testing.T) {
			topo, err := Build(Options{Arch: arch, Algo: AlgCachedEJB, Populate: pop, Protocol: deploy.Protocol{Batch: true}})
			if err != nil {
				t.Fatal(err)
			}
			defer topo.Close()
			silent := func(when string) {
				t.Helper()
				if _, err := RunSweepOn(context.Background(), topo, scale, delays); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				st := topo.Stores[0].Stats()
				if st.Puts+st.Inserts+st.Deletes == 0 {
					t.Fatalf("%s: the run wrote nothing", when)
				}
				if p := topo.DBClients[0].WireStats().Pushes; p != 0 || st.NoticesSent != 0 {
					t.Errorf("%s: edge pushed %d notices, store sent %d; want 0 and 0", when, p, st.NoticesSent)
				}
			}
			silent("first run")
			if arch != ESRBES {
				return
			}
			addr := topo.Backends[0].Addr()
			topo.Backends[0].Close()
			be := backend.NewServer(storeapi.Local(topo.Stores[0]))
			if err := be.Start(addr); err != nil {
				t.Fatal(err)
			}
			defer be.Close()
			deadline := time.Now().Add(5 * time.Second)
			for topo.Managers[0].Stats().Resubscribes == 0 {
				if time.Now().After(deadline) {
					t.Fatal("the edge never resubscribed")
				}
				time.Sleep(5 * time.Millisecond)
			}
			silent("after resubscribing")
		})
	}
}

// TestSweepRequiresDelays: RunSweep validates its inputs.
func TestSweepRequiresDelays(t *testing.T) {
	_, err := RunSweep(context.Background(), Options{
		Arch: ClientsRAS, Algo: AlgJDBC,
		Populate: trade.PopulateConfig{Users: 2, Symbols: 2},
	}, Scale{}, nil)
	if err == nil {
		t.Fatal("empty delay sweep accepted")
	}
}

// TestProtocolReachesManagers: the protocol passed at Build time must
// configure every edge's manager. ES/RBES ships whole commit sets under
// any protocol; ES/RDB drives the commit itself, one round trip per
// statement under the paper's protocol or one statement batch with
// batching on; and the finder cache is on exactly when the protocol says.
func TestProtocolReachesManagers(t *testing.T) {
	pop := trade.PopulateConfig{Users: 2, Symbols: 2, HoldingsPerUser: 1}
	for _, tc := range []struct {
		proto        deploy.Protocol
		rdbShipping  string
		finderCached bool
	}{
		{deploy.Paper(), "per-statement", false},
		{deploy.Shipped(), "per-image", true},
	} {
		for arch, want := range map[Architecture]string{ESRBES: "whole-set", ESRDB: tc.rdbShipping} {
			topo, err := Build(Options{Arch: arch, Algo: AlgCachedEJB, EdgeServers: 2, Populate: pop, Protocol: tc.proto})
			if err != nil {
				t.Fatal(err)
			}
			for i, mgr := range topo.Managers {
				if got := mgr.Shipping().String(); got != want {
					t.Errorf("%s %+v edge %d shipping = %s, want %s", arch, tc.proto, i, got, want)
				}
				// A disabled finder cache opens no fill.
				fill := mgr.FinderCache().StartFill()
				mgr.FinderCache().Drop(fill)
				if got := fill != nil; got != tc.finderCached {
					t.Errorf("%s %+v edge %d finder cache on = %v, want %v", arch, tc.proto, i, got, tc.finderCached)
				}
			}
			topo.Close()
		}
	}
	// Non-cached algorithms have nil manager slots.
	topo, err := Build(Options{Arch: ESRDB, Algo: AlgJDBC, Populate: pop})
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	if topo.Managers[0] != nil {
		t.Error("JDBC topology has a cache manager")
	}
}
