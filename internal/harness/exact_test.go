package harness

import (
	"context"
	"testing"
	"time"

	"edgeejb/internal/deploy"
	"edgeejb/internal/trade"
)

// TestCountsRepeatExactly: at a fixed seed with one client, round trips
// and bytes on the shared path are properties of the protocol, so two
// fresh sweeps read them bit-identical at every point — what lets the
// perf gate compare the wire.* rows for equality. The cached cells are
// the ones whose edges receive invalidation pushes: a notice's bytes land
// in the point whose commit sent it only because Topology.Measure waits
// for every notice before it snapshots the counts.
func TestCountsRepeatExactly(t *testing.T) {
	delays := []time.Duration{0, time.Millisecond}
	scale := Scale{
		Workload: trade.GeneratorConfig{Seed: 42, Users: 10, Symbols: 20},
		Warmup:   2,
		Sessions: 6,
		Batches:  6,
	}
	pop := trade.PopulateConfig{Seed: 42, Users: 10, Symbols: 20, HoldingsPerUser: 2}
	for _, arch := range []Architecture{ESRBES, ESRDB} {
		var first []Point
		for i := 0; i < 2; i++ {
			sweep, err := RunSweep(context.Background(), Options{
				Arch: arch, Algo: AlgCachedEJB, Populate: pop,
				Protocol: deploy.Shipped(),
			}, scale, delays)
			if err != nil {
				t.Fatalf("%s: %v", arch, err)
			}
			if i == 0 {
				first = sweep.Points
				continue
			}
			for j, p := range sweep.Points {
				q := first[j]
				if p.SharedRoundTripsPerInteraction() != q.SharedRoundTripsPerInteraction() ||
					p.SharedBytesPerInteraction() != q.SharedBytesPerInteraction() {
					t.Errorf("%s at %v ms: %v rt and %v B per interaction, then %v rt and %v B",
						arch, p.OneWayDelayMs, q.SharedRoundTripsPerInteraction(), q.SharedBytesPerInteraction(),
						p.SharedRoundTripsPerInteraction(), p.SharedBytesPerInteraction())
				}
			}
		}
	}
}
