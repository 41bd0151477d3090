package harness

import (
	"context"
	"testing"
	"time"

	"edgeejb/internal/trade"
)

// TestSmokeAllPairs drives a couple of sessions through every
// (architecture, algorithm) cell at zero delay.
func TestSmokeAllPairs(t *testing.T) {
	for _, pair := range AllPairs() {
		pair := pair
		t.Run(pair.String(), func(t *testing.T) {
			topo, err := Build(Options{
				Arch:     pair.Arch,
				Algo:     pair.Algo,
				Populate: trade.PopulateConfig{Users: 10, Symbols: 20, HoldingsPerUser: 2},
			})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			defer topo.Close()

			sweep, err := RunSweepOn(context.Background(), topo, Scale{
				Workload: trade.GeneratorConfig{Seed: 7, Users: 10, Symbols: 20},
				Warmup:   1,
				Sessions: 3,
				Batches:  4,
			}, []time.Duration{0})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			p := sweep.Points[0]
			if p.Load.Interactions == 0 {
				t.Fatal("no interactions measured")
			}
			if p.Load.Failures > 0 {
				t.Fatalf("%d failed interactions", p.Load.Failures)
			}
			t.Logf("%s: %d interactions, mean %.2fms, shared bytes/interaction %.0f",
				pair, p.Load.Interactions, p.MeanLatencyMs(), p.SharedBytesPerInteraction())
		})
	}
}
