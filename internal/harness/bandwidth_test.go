package harness

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"edgeejb/internal/loadgen"
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

// TestWireBytesMatchProxy: Figure 8's bytes are the bytes the delay
// proxies forward. Over a measured pass, the shared-path bytes the wire
// clients count equal what the proxies on that path forwarded, on each
// shape the path takes: web clients to the application server
// (Clients/RAS), an edge's database connections with and without its
// invalidation stream (ES/RDB cached EJBs and JDBC), and two edges'
// connections to one back-end, each hearing the other's notices
// (ES/RBES). The proxy counts a chunk before it forwards it, and a pass
// ends once every notice sent has been applied, so nothing is in flight
// when the two are compared.
func TestWireBytesMatchProxy(t *testing.T) {
	workload := trade.GeneratorConfig{Seed: 21, Users: 10, Symbols: 20}
	pop := trade.PopulateConfig{Users: 10, Symbols: 20, HoldingsPerUser: 2}
	for _, tc := range []struct {
		pair  Pair
		edges int
	}{
		{Pair{ClientsRAS, AlgJDBC}, 1},
		{Pair{ESRDB, AlgCachedEJB}, 1},
		{Pair{ESRDB, AlgJDBC}, 1},
		{Pair{ESRBES, AlgCachedEJB}, 2},
	} {
		t.Run(tc.pair.String(), func(t *testing.T) {
			topo, err := Build(Options{Arch: tc.pair.Arch, Algo: tc.pair.Algo, EdgeServers: tc.edges, Populate: pop})
			if err != nil {
				t.Fatal(err)
			}
			defer topo.Close()
			load := loadgen.Config{Generators: loadgen.Generators(workload, tc.edges), Sessions: 4, Batches: 2}
			for edge := 0; edge < tc.edges; edge++ {
				c, err := topo.NewWebClientFor(edge)
				if err != nil {
					t.Fatal(err)
				}
				load.Clients = append(load.Clients, c)
			}
			proxied := func() (n uint64) {
				for _, p := range topo.proxies {
					n += p.Counter().Total()
				}
				return n
			}
			ctx := context.Background()
			// The first pass warms the caches; the second is measured.
			if _, err := topo.Measure(ctx, load); err != nil {
				t.Fatalf("warm pass: %v", err)
			}
			before := proxied()
			pass, err := topo.Measure(ctx, load)
			if err != nil {
				t.Fatalf("measured pass: %v", err)
			}
			forwarded := proxied() - before
			if forwarded == 0 {
				t.Fatal("the proxies forwarded nothing")
			}
			if got := pass.Wire.Bytes(); got != forwarded {
				t.Errorf("wire clients counted %d B, the proxies forwarded %d B", got, forwarded)
			}
			if tc.pair.Arch == ESRBES && pass.Wire.Pushes == 0 {
				t.Error("no notice crossed between the two edges")
			}
		})
	}
}

// TestWireOpsAddUpToThePass: the -metrics by-op table of a measured
// pass adds up to that pass's Figure 8 numbers. Its per-op rows sum to
// the round trips and system bytes per interaction, and the trace/span
// pairs the harness puts on every traced request show once, on their
// own row, and in no op's bytes.
func TestWireOpsAddUpToThePass(t *testing.T) {
	scale := Scale{
		Workload: trade.GeneratorConfig{Seed: 21, Users: 10, Symbols: 20},
		Warmup:   2,
		Sessions: 6,
		Batches:  4,
	}
	pop := trade.PopulateConfig{Users: 10, Symbols: 20, HoldingsPerUser: 2}
	for _, pair := range []Pair{{ESRBES, AlgCachedEJB}, {ESRDB, AlgJDBC}} {
		sweep, err := RunSweep(context.Background(), Options{Arch: pair.Arch, Algo: pair.Algo, Populate: pop}, scale, []time.Duration{0})
		if err != nil {
			t.Fatalf("%s: %v", pair, err)
		}
		p := sweep.Points[0]
		if p.Wire.TraceBytes == 0 {
			t.Fatalf("%s: the pass counted no trace bytes", pair)
		}
		var out strings.Builder
		WriteWireOps(&out, []Sweep{sweep})
		var rts, bytes, traced float64
		var ops int
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			switch {
			case strings.HasPrefix(strings.TrimSpace(line), "harness trace headers"):
				traced = parseFloat(t, f[len(f)-1])
			case len(f) == 5 && f[0] != "total":
				if _, err := strconv.ParseFloat(f[1], 64); err != nil {
					continue // a header
				}
				ops++
				rts += parseFloat(t, f[1])
				bytes += parseFloat(t, f[4])
			}
		}
		if ops == 0 {
			t.Fatalf("%s: no op rows in\n%s", pair, out.String())
		}
		// Each row is rounded to 3 decimals of round trips and 1 of bytes.
		if want := p.SharedRoundTripsPerInteraction(); math.Abs(rts-want) > 0.0005*float64(ops) {
			t.Errorf("%s: op rows sum to %.3f round trips per interaction, the pass %.3f", pair, rts, want)
		}
		if want := p.SharedBytesPerInteraction(); math.Abs(bytes-want) > 0.05*float64(ops) {
			t.Errorf("%s: op rows sum to %.1f bytes per interaction, the pass %.1f", pair, bytes, want)
		}
		if want := p.perInteraction(p.Wire.TraceBytes); math.Abs(traced-want) > 0.05 {
			t.Errorf("%s: trace header row reads %.1f bytes per interaction, the pass %.1f", pair, traced, want)
		}
	}
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
