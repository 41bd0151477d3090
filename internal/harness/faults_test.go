package harness

import (
	"context"
	"runtime"
	"testing"
	"time"

	"edgeejb/internal/deploy"
	"edgeejb/internal/latency"
	"edgeejb/internal/trade"
)

// TestFaultExperimentSurvives runs the split-servers cell under an
// aggressive fault schedule and checks the resilience machinery holds:
// sessions overwhelmingly succeed via retries, faults were actually
// injected, and the topology tears down without leaking goroutines.
func TestFaultExperimentSurvives(t *testing.T) {
	if testing.Short() {
		t.Skip("fault experiment is seconds-long")
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	reports, err := RunFaultExperiment(ctx, Options{
		Populate: trade.PopulateConfig{Users: 20, Symbols: 40, HoldingsPerUser: 2, OpenBalance: 1_000_000},
	}, Scale{
		Workload: trade.GeneratorConfig{Seed: 11, Users: 20, Symbols: 40},
		Warmup:   20,
		Sessions: 40,
	}, []Pair{{ESRBES, AlgCachedEJB}}, latency.FaultPlan{
		Seed:          11,
		ResetRate:     0.5,
		ResetAfterMax: 32 * 1024,
		StallRate:     0.02,
		StallFor:      10 * time.Millisecond,
		TruncateRate:  0.01,
	}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(reports))
	}
	r := reports[0]

	if total := r.Faulted.Load.Completed + r.Faulted.Load.Abandoned; total != 40 {
		t.Fatalf("attempted %d sessions, want 40", total)
	}
	if rate := r.Faulted.Load.SuccessRate(); rate < 0.95 {
		t.Fatalf("faulted success rate %.2f, want >= 0.95 (%+v)", rate, r.Faulted.Load)
	}
	if r.Faults == (latency.FaultStats{}) {
		t.Fatal("no faults were injected")
	}
	if r.Faults.ConnResets > 0 && r.WireRetries() == 0 && r.Faulted.Load.Retries == 0 {
		t.Fatalf("connections were reset but nothing retried: %+v", r)
	}
	if r.Clean.Load.SuccessRate() != 1.0 {
		t.Fatalf("clean pass lost sessions: %+v", r.Clean.Load)
	}

	// Everything is closed: goroutine count must settle back. A couple
	// of runtime-internal goroutines may linger.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+3 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+3 {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked: %d before, %d after\n%s",
			before, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestFaultPairHonoursBatch: a fault pair builds its managers batched
// or not as the experiment's Options.Protocol says, as every other
// experiment does: the ES/RDB cached-EJB commit ships as one statement
// batch, or with batching off as one round trip per statement.
func TestFaultPairHonoursBatch(t *testing.T) {
	for batch, want := range map[bool]string{true: "per-image", false: "per-statement"} {
		topo, err := Build(Pair{ESRDB, AlgCachedEJB}.options(Options{
			Populate: trade.PopulateConfig{Users: 2, Symbols: 2, HoldingsPerUser: 1},
			Protocol: deploy.Protocol{Batch: batch},
		}))
		if err != nil {
			t.Fatal(err)
		}
		got := topo.Managers[0].Shipping().String()
		topo.Close()
		if got != want {
			t.Errorf("fault pair with Batch=%v ships %s, want %s", batch, got, want)
		}
	}
}
