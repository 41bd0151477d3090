package harness

import (
	"context"
	"testing"
	"time"

	"edgeejb/internal/deploy"
	"edgeejb/internal/trade"
)

// TestSensitivityOrdering verifies the central qualitative result of the
// paper (Table 2): Clients/RAS ≈ 2, ES/RBES cached is close to it, and
// within ES/RDB the ordering is JDBC < Cached < Vanilla, with every
// ES/RDB algorithm far above Clients/RAS.
func TestSensitivityOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity sweep uses real injected delays")
	}
	run := RunOptions{
		Delays:         []time.Duration{0, time.Millisecond, 2 * time.Millisecond},
		Sessions:       10,
		WarmupSessions: 4,
		Batches:        5,
		Workload:       trade.GeneratorConfig{Seed: 11, Users: 20, Symbols: 40},
	}
	pop := trade.PopulateConfig{Users: 20, Symbols: 40, HoldingsPerUser: 3}

	sens := make(map[Pair]float64)
	for _, pair := range AllPairs() {
		sweep, err := RunSweep(context.Background(), Options{
			Arch:     pair.Arch,
			Algo:     pair.Algo,
			Populate: pop,
			Protocol: deploy.Paper(),
		}, run)
		if err != nil {
			t.Fatalf("%s: %v", pair, err)
		}
		sens[pair] = sweep.Sensitivity()
		t.Logf("%-28s sensitivity %.2f (R²=%.3f)", pair, sweep.Sensitivity(), sweep.Fit.R2)
	}

	ras := sens[Pair{ClientsRAS, AlgJDBC}]
	if ras < 1.8 || ras > 2.5 {
		t.Errorf("Clients/RAS sensitivity %.2f outside [1.8, 2.5] (paper: 2.0)", ras)
	}
	rbes := sens[Pair{ESRBES, AlgCachedEJB}]
	rdbCached := sens[Pair{ESRDB, AlgCachedEJB}]
	rdbJDBC := sens[Pair{ESRDB, AlgJDBC}]
	rdbVanilla := sens[Pair{ESRDB, AlgVanillaEJB}]

	// The non-edge architecture is least sensitive; ES/RBES is close
	// behind (paper: 2.0 vs 3.1).
	if !(rbes >= ras-0.2) {
		t.Errorf("expected ES/RBES (%.2f) >= Clients/RAS (%.2f)", rbes, ras)
	}
	if !(rbes < 0.6*rdbJDBC) {
		t.Errorf("expected ES/RBES (%.2f) well below best ES/RDB (%.2f)", rbes, rdbJDBC)
	}
	// Within ES/RDB, cached EJBs should land near JDBC. The paper's
	// tooled prototype measured 13.0 vs 9.4; our from-scratch SLI
	// runtime has none of that tooling overhead, so the two are nearly
	// equal (see EXPERIMENTS.md).
	if rdbCached < 0.8*rdbJDBC || rdbCached > 1.6*rdbJDBC {
		t.Errorf("expected ES/RDB cached (%.2f) within [0.8, 1.6]x of JDBC (%.2f)", rdbCached, rdbJDBC)
	}
	// Caching must strongly reduce vanilla-EJB sensitivity (paper:
	// 23.6 -> 13.0).
	if !(rdbCached < 0.75*rdbVanilla) {
		t.Errorf("expected ES/RDB cached (%.2f) < 0.75x vanilla (%.2f)", rdbCached, rdbVanilla)
	}
	if !(rdbJDBC < rdbVanilla) {
		t.Errorf("expected ES/RDB JDBC (%.2f) < vanilla (%.2f)", rdbJDBC, rdbVanilla)
	}
}
