package main

import (
	"context"
	"testing"

	"edgeejb/internal/appserver"
	"edgeejb/internal/backend"
	"edgeejb/internal/dbwire"
	"edgeejb/internal/deploy"
	"edgeejb/internal/harness"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
	"edgeejb/internal/trade"
)

// TestOneTargetMatchesHarnessEdge: the edge this daemon starts against
// one back-end target and the edge the harness builds for ES/RBES are
// the same product path — a fixed session costs both the same dbwire
// round trips, operation by operation, with invalidation pushes on.
func TestOneTargetMatchesHarnessEdge(t *testing.T) {
	pop := trade.PopulateConfig{Seed: 3, Users: 10, Symbols: 20, HoldingsPerUser: 2}
	session := func(t *testing.T, addr string) {
		t.Helper()
		client := appserver.NewClient(addr)
		defer client.Close()
		gen := trade.NewGenerator(trade.GeneratorConfig{Seed: 3, Users: 10, Symbols: 20})
		for i := 0; i < 3; i++ {
			for _, step := range gen.Session() {
				if resp, err := client.DoStep(context.Background(), step); err != nil || !resp.OK {
					t.Fatalf("%s: %v / %+v", step.Action, err, resp)
				}
			}
		}
	}
	// Round trips per operation. A label with none is left out: the
	// push label counts bytes only, and whether a notice has arrived by
	// the time the session returns is timing.
	opCounts := func(c *dbwire.Client) map[string]uint64 {
		out := make(map[string]uint64)
		for op, s := range c.WireStats().Ops {
			if s.Count > 0 {
				out[op] = s.Count
			}
		}
		return out
	}

	topo, err := harness.Build(harness.Options{
		Arch: harness.ESRBES, Algo: harness.AlgCachedEJB, Populate: pop,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	session(t, topo.AppServers[0].Addr())
	want := opCounts(topo.DBClients[0])

	// The datacenter as dbserverd and backendd run it, then the edge as
	// run() starts it from -target and -algo.
	store := sqlstore.New()
	defer store.Close()
	trade.Populate(store, pop)
	db := dbwire.NewServer(storeapi.Local(store))
	if err := db.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	backendDB := dbwire.Dial(db.Addr())
	defer backendDB.Close()
	be := backend.NewServer(backendDB)
	if err := be.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer be.Close()

	edge, err := deploy.StartEdge(context.Background(), "127.0.0.1:0", splitTargets(" "+be.Addr()+" ,"), "sli-backend", deploy.Paper())
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	session(t, edge.Server.Addr())
	got := opCounts(edge.Clients[0])

	if len(got) == 0 || got["ApplyCommitSet"] == 0 {
		t.Fatalf("edge performed no commits: %v", got)
	}
	for op, n := range want {
		if got[op] != n {
			t.Errorf("%s: %d round trips against one target, %d on the harness edge", op, got[op], n)
		}
	}
	if len(got) != len(want) {
		t.Errorf("operations differ: one target %v, harness edge %v", got, want)
	}
}
