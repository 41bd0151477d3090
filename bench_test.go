// Package edgeejb_test holds the benchmark harness that regenerates the
// paper's evaluation as testing.B benchmarks: one benchmark per table
// and figure, the ablation benchmarks DESIGN.md calls out, and
// micro-benchmarks for the hot paths.
//
// The figure benchmarks report the quantities the paper plots as custom
// metrics:
//
//	sensitivity   latency-sensitivity slope (Table 2, Figures 6-7)
//	ms/interaction  mean client latency at the largest swept delay
//	B/interaction   bytes on the shared path per interaction (Figure 8)
//
// Sweeps use scaled-down delays (sensitivity is a slope and is invariant
// to the delay scale; DESIGN.md §7). Run everything with:
//
//	go test -bench=. -benchmem
package edgeejb_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"edgeejb/internal/deploy"
	"edgeejb/internal/harness"
	"edgeejb/internal/trade"
)

// benchScale and benchDelays are the mini-sweep shared by the figure
// benchmarks: small enough to keep `go test -bench=.` in seconds per
// benchmark, large enough for stable slopes (R² is reported by
// tradebench for the full-scale runs).
func benchScale() harness.Scale {
	return harness.Scale{
		Workload: trade.GeneratorConfig{Seed: 42, Users: 20, Symbols: 40},
		Warmup:   3,
		Sessions: 6,
		Batches:  4,
	}
}

var benchDelays = []time.Duration{0, time.Millisecond, 2 * time.Millisecond}

func benchPopulate() trade.PopulateConfig {
	return trade.PopulateConfig{Seed: 42, Users: 20, Symbols: 40, HoldingsPerUser: 3}
}

// sweepBenchmark runs one (architecture, algorithm) sweep per iteration
// and reports the paper's metrics.
func sweepBenchmark(b *testing.B, arch harness.Architecture, algo harness.Algorithm) {
	b.Helper()
	sweepOptionsBenchmark(b, harness.Options{Arch: arch, Algo: algo})
}

// sweepOptionsBenchmark is sweepBenchmark for a topology that needs more
// than an architecture and an algorithm; Populate is filled in here.
func sweepOptionsBenchmark(b *testing.B, opts harness.Options) {
	b.Helper()
	ctx := context.Background()
	opts.Populate = benchPopulate()
	var lastSweep harness.Sweep
	for i := 0; i < b.N; i++ {
		sweep, err := harness.RunSweep(ctx, opts, benchScale(), benchDelays)
		if err != nil {
			b.Fatal(err)
		}
		lastSweep = sweep
	}
	reportSweep(b, lastSweep)
}

func reportSweep(b *testing.B, sweep harness.Sweep) {
	b.Helper()
	b.ReportMetric(sweep.Sensitivity(), "sensitivity")
	last := sweep.Points[len(sweep.Points)-1]
	b.ReportMetric(last.MeanLatencyMs(), "ms/interaction")
	b.ReportMetric(last.SharedBytesPerInteraction(), "B/interaction")
}

// --- Table 1 ---------------------------------------------------------

// BenchmarkTable1ActionMix measures the workload generator itself and
// reports the realized mean session length (the paper: "about 11
// individual trade actions" per session).
func BenchmarkTable1ActionMix(b *testing.B) {
	gen := trade.NewGenerator(trade.GeneratorConfig{Seed: 1, Users: 50, Symbols: 100})
	total := 0
	sessions := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total += len(gen.Session())
		sessions++
	}
	b.ReportMetric(float64(total)/float64(sessions), "actions/session")
}

// --- Figure 6: comparison of high-latency architectures ---------------

func BenchmarkFig6_ClientsRAS(b *testing.B) {
	sweepBenchmark(b, harness.ClientsRAS, harness.AlgJDBC)
}

func BenchmarkFig6_ESRBES_CachedEJB(b *testing.B) {
	sweepBenchmark(b, harness.ESRBES, harness.AlgCachedEJB)
}

func BenchmarkFig6_ESRDB_Best(b *testing.B) {
	// The paper plots ES/RDB's best algorithm (JDBC) in Figure 6.
	sweepBenchmark(b, harness.ESRDB, harness.AlgJDBC)
}

// --- Figure 7: ES/RDB algorithm comparison -----------------------------

func BenchmarkFig7_ESRDB_CachedEJB(b *testing.B) {
	sweepBenchmark(b, harness.ESRDB, harness.AlgCachedEJB)
}

func BenchmarkFig7_ESRDB_JDBC(b *testing.B) {
	sweepBenchmark(b, harness.ESRDB, harness.AlgJDBC)
}

func BenchmarkFig7_ESRDB_VanillaEJB(b *testing.B) {
	sweepBenchmark(b, harness.ESRDB, harness.AlgVanillaEJB)
}

// --- Table 2: latency sensitivity --------------------------------------

// BenchmarkTable2_Sensitivities runs the full grid once per iteration
// and reports each cell's slope, regenerating Table 2 in one benchmark.
func BenchmarkTable2_Sensitivities(b *testing.B) {
	ctx := context.Background()
	opts := harness.Options{Populate: benchPopulate()}
	var eval *harness.Evaluation
	for i := 0; i < b.N; i++ {
		e, err := harness.RunEvaluation(ctx, opts, benchScale(), benchDelays, nil)
		if err != nil {
			b.Fatal(err)
		}
		eval = e
	}
	for _, cell := range eval.Table2() {
		if cell.NA {
			continue
		}
		name := cell.Pair.Arch.String() + "/" + cell.Pair.Algo.String()
		b.ReportMetric(cell.Sensitivity, "sens:"+sanitizeMetric(name))
	}
}

// --- Figure 8: bandwidth -----------------------------------------------

// BenchmarkFig8_Bandwidth measures shared-path bytes per interaction for
// the three Figure 6 configurations at a fixed delay.
func BenchmarkFig8_Bandwidth(b *testing.B) {
	ctx := context.Background()
	series := []struct {
		name string
		arch harness.Architecture
		algo harness.Algorithm
	}{
		{"ClientsRAS", harness.ClientsRAS, harness.AlgJDBC},
		{"ESRBES", harness.ESRBES, harness.AlgCachedEJB},
		{"ESRDB", harness.ESRDB, harness.AlgJDBC},
	}
	results := make(map[string]float64, len(series))
	for i := 0; i < b.N; i++ {
		for _, sc := range series {
			sweep, err := harness.RunSweep(ctx, harness.Options{
				Arch: sc.arch, Algo: sc.algo, Populate: benchPopulate(),
			}, benchScale(), []time.Duration{time.Millisecond})
			if err != nil {
				b.Fatal(err)
			}
			results[sc.name] = sweep.Points[0].SharedBytesPerInteraction()
		}
	}
	for name, v := range results {
		b.ReportMetric(v, "B/interaction:"+name)
	}
}

// --- Ablations (DESIGN.md §5) -------------------------------------------

// BenchmarkAblationCommitShipping isolates the combined-vs-split design
// choice (§4.4) on identical cached edge servers: the commit driven
// against the database one round trip per statement (the paper's
// combined-servers), the same statements as one batch after begin (what
// ships), and the whole set through the back-end.
func BenchmarkAblationCommitShipping(b *testing.B) {
	b.Run("per-statement_ESRDB", func(b *testing.B) {
		sweepBenchmark(b, harness.ESRDB, harness.AlgCachedEJB)
	})
	b.Run("per-image_ESRDB", func(b *testing.B) {
		sweepOptionsBenchmark(b, harness.Options{Arch: harness.ESRDB, Algo: harness.AlgCachedEJB, Protocol: deploy.Protocol{Batch: true}})
	})
	b.Run("whole-set_ESRBES", func(b *testing.B) {
		sweepBenchmark(b, harness.ESRBES, harness.AlgCachedEJB)
	})
}

// BenchmarkAblationBatchedCommit measures the future-work batching idea
// (§4.4): three browse actions as three transactions versus one bundled
// transaction, over the split-servers edge with injected delay.
func BenchmarkAblationBatchedCommit(b *testing.B) {
	ctx := context.Background()
	topo, err := harness.Build(harness.Options{
		Arch:        harness.ESRBES,
		Algo:        harness.AlgCachedEJB,
		OneWayDelay: time.Millisecond,
		Populate:    benchPopulate(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer topo.Close()
	svc := topo.Services[0]
	user := trade.UserID(1)
	symbol := trade.SymbolID(1)

	b.Run("separate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := svc.Home(ctx, user); err != nil {
				b.Fatal(err)
			}
			if _, err := svc.GetQuote(ctx, symbol); err != nil {
				b.Fatal(err)
			}
			if _, err := svc.Portfolio(ctx, user); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bundled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := svc.BrowseBundle(ctx, user, symbol); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func sanitizeMetric(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '\t':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// --- Extension: throughput under concurrent load -----------------------

// BenchmarkExtensionThroughput sweeps client concurrency on the
// split-servers edge at a fixed delay and reports interactions/second —
// the queuing dimension the paper deliberately factored out.
func BenchmarkExtensionThroughput(b *testing.B) {
	ctx := context.Background()
	var curve harness.ThroughputCurve
	for i := 0; i < b.N; i++ {
		c, err := harness.RunThroughput(ctx, harness.Options{
			Arch:        harness.ESRBES,
			Algo:        harness.AlgCachedEJB,
			OneWayDelay: time.Millisecond,
			Populate:    benchPopulate(),
		}, harness.Scale{
			Workload: trade.GeneratorConfig{Seed: 42, Users: 20, Symbols: 40},
			Warmup:   2,
			Sessions: 4,
		}, []int{1, 4})
		if err != nil {
			b.Fatal(err)
		}
		curve = c
	}
	for _, p := range curve.Points {
		b.ReportMetric(p.Load.Throughput, fmt.Sprintf("tps@%dclients", p.Clients))
	}
}
