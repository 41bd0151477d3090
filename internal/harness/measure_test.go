package harness

import (
	"context"
	"testing"

	"edgeejb/internal/appserver"
	"edgeejb/internal/loadgen"
	"edgeejb/internal/obs"
	"edgeejb/internal/trade"
)

// TestMeasureWindows drives two consecutive passes through a two-edge
// ES/RBES topology: account updates through edge 0, then browsing
// sessions through edge 1. Each edge is pushed the other's write sets.
// Every Trade session logs in and out, which writes the registry, so
// neither pass is free of notices; each must hold the invalidation
// events of exactly the notices its own commits sent, none of the other
// pass's, and together the passes must account for every round trip,
// byte and interaction the topology counted across both.
func TestMeasureWindows(t *testing.T) {
	topo, err := Build(Options{
		Arch:        ESRBES,
		Algo:        AlgCachedEJB,
		EdgeServers: 2,
		Populate:    trade.PopulateConfig{Users: 6, Symbols: 10, HoldingsPerUser: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	ctx := context.Background()

	sent := func() uint64 {
		var n uint64
		for _, s := range topo.Stores {
			n += s.Stats().NoticesSent
		}
		return n
	}
	requests := func() uint64 {
		var n uint64
		for _, s := range topo.AppServers {
			n += s.Requests()
		}
		return n
	}
	through := func(edge int, mix trade.Mix) loadgen.Config {
		client, err := topo.NewWebClientFor(edge)
		if err != nil {
			t.Fatal(err)
		}
		wl := trade.GeneratorConfig{Seed: int64(50 + edge), Users: 6, Symbols: 10, Mix: mix}
		return loadgen.Config{
			Clients:    []*appserver.Client{client},
			Generators: []*trade.Generator{trade.NewGenerator(wl)},
			Sessions:   4,
		}
	}
	invalidations := func(p Pass) map[uint64]int {
		origins := make(map[uint64]int)
		for _, e := range p.Events {
			if e.Type == obs.EventInvalidation {
				origins[e.OtherTrace]++
			}
		}
		return origins
	}
	count := func(origins map[uint64]int) int {
		n := 0
		for _, c := range origins {
			n += c
		}
		return n
	}

	wireBefore, requestsBefore, sentBefore := topo.SharedPathStats(), requests(), sent()
	writes, err := topo.Measure(ctx, through(0, trade.Mix{AccountUpdate: 1}))
	if err != nil {
		t.Fatal(err)
	}
	sentWrites := sent()
	reads, err := topo.Measure(ctx, through(1, trade.Mix{Quote: 1, Account: 1}))
	if err != nil {
		t.Fatal(err)
	}
	wireAfter, requestsAfter, sentAfter := topo.SharedPathStats(), requests(), sent()

	first, second := invalidations(writes), invalidations(reads)
	if got, want := count(first), int(sentWrites-sentBefore); got != want || want == 0 {
		t.Errorf("first pass holds %d invalidations, its commits sent %d notices", got, want)
	}
	if got, want := count(second), int(sentAfter-sentWrites); got != want {
		t.Errorf("second pass holds %d invalidations, its commits sent %d notices", got, want)
	}
	for origin := range second {
		if first[origin] > 0 {
			t.Errorf("the notice of commit trace %d is charged to both passes", origin)
		}
	}

	for _, p := range []Pass{writes, reads} {
		if p.Load.Failures != 0 {
			t.Fatalf("%d failed interactions", p.Load.Failures)
		}
	}
	if got, want := writes.Wire.RoundTrips+reads.Wire.RoundTrips, wireAfter.RoundTrips-wireBefore.RoundTrips; got != want {
		t.Errorf("passes hold %d shared round trips, the topology counted %d", got, want)
	}
	if got, want := writes.Wire.Bytes()+reads.Wire.Bytes(), wireAfter.Bytes()-wireBefore.Bytes(); got != want {
		t.Errorf("passes hold %d shared bytes, the topology counted %d", got, want)
	}
	if got, want := uint64(writes.Load.Interactions+reads.Load.Interactions), requestsAfter-requestsBefore; got != want {
		t.Errorf("passes hold %d interactions, the edges served %d", got, want)
	}
}
