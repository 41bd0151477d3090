package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"edgeejb/internal/appserver"
	"edgeejb/internal/trade"
	"edgeejb/internal/wire"
)

// driveSession runs one generated Trade session through client and
// fails the test on a transport error or a failed page.
func driveSession(t *testing.T, client *appserver.Client, gen *trade.Generator) {
	t.Helper()
	for _, step := range gen.Session() {
		resp, err := client.DoStep(context.Background(), step)
		if err != nil {
			t.Fatalf("%s: %v", step.Action, err)
		}
		if !resp.OK {
			t.Fatalf("%s failed: %s", step.Action, resp.Err)
		}
	}
}

// TestBuildMatrix builds every (architecture, algorithm, shards, edges)
// cell with the one builder. An admitted cell has the shape its options
// name, serves a Trade session on every edge and closes; a refused cell
// fails with an error that names the constraint.
func TestBuildMatrix(t *testing.T) {
	// refusal is the constraint a cell breaks, in the order Build checks
	// them; "" admits the cell.
	refusal := func(arch Architecture, algo Algorithm, shards, edges int) string {
		switch {
		case arch == ESRBES && algo != AlgCachedEJB:
			return "ES/RBES supports only Cached EJBs"
		case arch == ClientsRAS && edges > 1:
			return "Clients/RAS has no edge servers to multiply"
		case shards > 1 && arch != ESRBES:
			return "whole-set commit shipping"
		}
		return ""
	}
	pop := trade.PopulateConfig{Users: 10, Symbols: 20, HoldingsPerUser: 2}
	for _, arch := range []Architecture{ESRDB, ESRBES, ClientsRAS} {
		for _, algo := range []Algorithm{AlgJDBC, AlgVanillaEJB, AlgCachedEJB} {
			for _, shards := range []int{1, 2} {
				for _, edges := range []int{1, 2} {
					name := fmt.Sprintf("%s/%s/shards=%d/edges=%d", arch, algo, shards, edges)
					want := refusal(arch, algo, shards, edges)
					t.Run(name, func(t *testing.T) {
						topo, err := Build(Options{
							Arch: arch, Algo: algo, Shards: shards, EdgeServers: edges, Populate: pop,
						})
						if want != "" {
							if err == nil {
								topo.Close()
								t.Fatalf("built; want an error naming %q", want)
							}
							if !strings.Contains(err.Error(), want) {
								t.Fatalf("error %q does not name %q", err, want)
							}
							return
						}
						if err != nil {
							t.Fatalf("build: %v", err)
						}
						defer topo.Close()

						backends := 0
						if arch == ESRBES {
							backends = shards
						}
						if len(topo.Stores) != shards || len(topo.Backends) != backends ||
							len(topo.AppServers) != edges || len(topo.DBClients) != edges*shards {
							t.Fatalf("%d stores, %d backends, %d app servers, %d db clients; want %d, %d, %d, %d",
								len(topo.Stores), len(topo.Backends), len(topo.AppServers), len(topo.DBClients),
								shards, backends, edges, edges*shards)
						}
						rows := 0
						for _, s := range topo.Stores {
							rows += int(s.Stats().RowsLive)
						}
						if all := len(trade.PopulationRows(pop)); rows != all {
							t.Errorf("shards hold %d rows between them, want the population's %d", rows, all)
						}

						gen := trade.NewGenerator(trade.GeneratorConfig{Seed: 7, Users: 10, Symbols: 20})
						for e := 0; e < edges; e++ {
							client, err := topo.NewWebClientFor(e)
							if err != nil {
								t.Fatal(err)
							}
							driveSession(t, client, gen)
							if topo.AppServers[e].Requests() == 0 {
								t.Errorf("edge %d served nothing", e)
							}
						}
					})
				}
			}
		}
	}

	for name, opts := range map[string]Options{
		"invalid architecture": {Arch: Architecture(9), Algo: AlgJDBC},
		"invalid algorithm":    {Arch: ESRDB, Algo: Algorithm(9)},
	} {
		if topo, err := Build(opts); err == nil {
			topo.Close()
			t.Errorf("%s accepted", name)
		} else if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name the %s", err, name)
		}
	}
}

// TestCloseClosesWebClients: Close closes every client the topology
// handed out, through either constructor, and leaves no goroutine
// behind.
func TestCloseClosesWebClients(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, pair := range []Pair{{ESRBES, AlgCachedEJB}, {ClientsRAS, AlgJDBC}} {
		topo, err := Build(Options{
			Arch: pair.Arch, Algo: pair.Algo,
			Populate: trade.PopulateConfig{Users: 10, Symbols: 20, HoldingsPerUser: 2},
		})
		if err != nil {
			t.Fatalf("%s: build: %v", pair, err)
		}
		pinned, err := topo.NewWebClientFor(0)
		if err != nil {
			topo.Close()
			t.Fatal(err)
		}
		clients := []*appserver.Client{topo.NewWebClient(), pinned}
		gen := trade.NewGenerator(trade.GeneratorConfig{Seed: 7, Users: 10, Symbols: 20})
		for _, c := range clients {
			driveSession(t, c, gen)
		}
		topo.Close()
		for i, c := range clients {
			_, err := c.DoStep(context.Background(), trade.Step{Action: trade.ActionHome, UserID: trade.UserID(0)})
			if !errors.Is(err, wire.ErrClosed) {
				t.Errorf("%s: client %d after Close: %v, want wire.ErrClosed", pair, i, err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after Close\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}
