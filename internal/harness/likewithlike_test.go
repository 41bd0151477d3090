package harness

import (
	"context"
	"math"
	"testing"
	"time"

	"edgeejb/internal/deploy"
	"edgeejb/internal/trade"
)

// TestLikeWithLikeRoundTrips counts, at 0 ms and with no timing in the
// assertions, what Figure 7 compares once every manager on a pinned
// stream batches: the ES/RDB cached-EJB commit is begin + one statement
// batch, so it fits the ROADMAP's 3.0 round trips per interaction, and
// begin staying its own round trip keeps ES/RBES below it (Figure 6).
// With batching off the commit is the paper's one round trip per
// statement, pinned to the count measured before the commit was batched.
func TestLikeWithLikeRoundTrips(t *testing.T) {
	run := RunOptions{
		Delays:         []time.Duration{0},
		Sessions:       6,
		WarmupSessions: 2,
		Batches:        4,
		Workload:       trade.GeneratorConfig{Seed: 21, Users: 10, Symbols: 20},
	}
	pop := trade.PopulateConfig{Users: 10, Symbols: 20, HoldingsPerUser: 2}

	// roundTrips returns the shared-path round trips and the
	// interactions they served.
	roundTrips := func(arch Architecture, proto deploy.Protocol) (rts, ixns int) {
		t.Helper()
		sweep, err := RunSweep(context.Background(), Options{
			Arch: arch, Algo: AlgCachedEJB, Populate: pop, Protocol: proto,
		}, run)
		if err != nil {
			t.Fatalf("%s %+v: %v", arch, proto, err)
		}
		p := sweep.Points[0]
		return int(math.Round(p.SharedRoundTripsPerInteraction * float64(p.Load.Interactions))), p.Load.Interactions
	}

	batched := deploy.Protocol{Batch: true}
	rdb, ixns := roundTrips(ESRDB, batched)
	rbes, rbesIxns := roundTrips(ESRBES, batched)
	serial, serialIxns := roundTrips(ESRDB, deploy.Paper())
	t.Logf("round trips over %d interactions: ES/RBES %d, ES/RDB batched %d, ES/RDB per statement %d",
		ixns, rbes, rdb, serial)
	if rbesIxns != ixns || serialIxns != ixns {
		t.Fatalf("interaction counts differ: %d, %d, %d", ixns, rbesIxns, serialIxns)
	}

	if perIxn := float64(rdb) / float64(ixns); perIxn > 3.0 {
		t.Errorf("ES/RDB cached = %.2f round trips per interaction, want <= 3.0", perIxn)
	}
	if !(rbes < rdb) {
		t.Errorf("ES/RBES cached (%d round trips) should stay below ES/RDB cached (%d)", rbes, rdb)
	}
	// Measured at the commit before this shipping existed, same options.
	const prePRSerial, prePRIxns = 170, 49
	if serial != prePRSerial || ixns != prePRIxns {
		t.Errorf("ES/RDB cached, one round trip per statement = %d round trips over %d interactions, want exactly %d over %d",
			serial, ixns, prePRSerial, prePRIxns)
	}
}
