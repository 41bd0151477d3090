package harness

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"edgeejb/internal/appserver"
	"edgeejb/internal/latency"
	"edgeejb/internal/loadgen"
	"edgeejb/internal/obs"
	"edgeejb/internal/trade"
)

// TestShardedSmoke drives the Figure 6 workload through a two-shard
// datacenter tier and checks the decision rule actually exercised every
// path: single-shard fast-path commits, cross-shard 2PC (a buy whose
// quote lives on the other shard), and commits applied by both shards'
// back-ends. It also asserts a cross-shard commit renders as one
// waterfall: the coordinator's 2PC span with a prepare and a
// commit-prepared child per participant, and that no participant is
// left holding a prepared set.
func TestShardedSmoke(t *testing.T) {
	log := obs.NewSpanLog(1 << 16)
	saved := obs.DefaultSpans
	obs.DefaultSpans = log
	defer func() { obs.DefaultSpans = saved }()
	obsBefore := obs.Default.Snapshot()

	topo, err := Build(Options{
		Arch:     ESRBES,
		Algo:     AlgCachedEJB,
		Shards:   2,
		Populate: trade.PopulateConfig{Users: 10, Symbols: 20, HoldingsPerUser: 2},
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer topo.Close()
	if len(topo.Stores) != 2 || len(topo.Backends) != 2 {
		t.Fatalf("topology has %d stores, %d backends, want 2 each",
			len(topo.Stores), len(topo.Backends))
	}

	points, err := topo.Run(context.Background(), Scale{
		Workload: trade.GeneratorConfig{Seed: 7, Users: 10, Symbols: 20},
		Warmup:   1,
		Sessions: 10,
		Batches:  4,
	}, DelaySteps([]time.Duration{0}))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	p := points[0]
	if p.Load.Interactions == 0 {
		t.Fatal("no interactions measured")
	}
	if p.Load.Failures > 0 {
		t.Fatalf("%d failed interactions", p.Load.Failures)
	}

	point := ShardScalingPoint{Shards: 2, Pass: p.Pass}
	if point.FastpathCommits() == 0 {
		t.Error("no single-shard fast-path commits; placement or routing broke")
	}
	diff := obs.Default.Diff(obsBefore)
	if diff.Counters["shard.2pc_commits"] == 0 {
		t.Error("no cross-shard 2PC commits; the workload's foreign-quote buys vanished")
	}
	if diff.Counters["shard.2pc_heuristics"] != 0 {
		t.Errorf("%d heuristic 2PC outcomes on a healthy run", diff.Counters["shard.2pc_heuristics"])
	}
	for shard, commits := range p.BackendCommits {
		if commits == 0 {
			t.Errorf("shard %d's back-end applied no commits; one shard took them all (%v)", shard, p.BackendCommits)
		}
	}
	for shard, s := range topo.Stores {
		if n := s.PreparedCount(); n != 0 {
			t.Errorf("shard %d holds %d prepared sets after the run", shard, n)
		}
	}

	// One cross-shard commit as a waterfall: under a single trace, the
	// 2PC span plus two prepares and two commit-prepareds.
	type shape struct{ twopc, prepare, commitPrep int }
	byTrace := make(map[uint64]*shape)
	for _, rec := range log.Recent(1 << 16) {
		s := byTrace[rec.Trace]
		if s == nil {
			s = &shape{}
			byTrace[rec.Trace] = s
		}
		switch rec.Name {
		case "shard.2pc":
			s.twopc++
		case "shard.prepare":
			s.prepare++
		case "shard.commit_prepared":
			s.commitPrep++
		}
	}
	found := false
	for _, s := range byTrace {
		if s.twopc >= 1 && s.prepare >= 2 && s.commitPrep >= 2 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no trace shows coordinator + both participants (2pc span with 2 prepares and 2 commit-prepareds)")
	}
	t.Logf("measured: fastpath=%d 2pc=%d readonly=%d scatter=%d by shard=%v",
		point.FastpathCommits(), point.TwoPCCommits(), point.ReadonlyCommits(),
		point.ScatterQueries(), p.BackendCommits)
}

// TestShardFaultChaosTwoEdges races two edge servers' sessions across a
// two-shard tier while every shard's wide-area proxy injects faults:
// connection resets, stalls and truncations land mid-2PC as well as
// mid-fast-path. The resilient machinery (wire retries, presumed abort,
// session retries) must keep nearly every session alive and leave no
// shard wedged with prepared transactions.
func TestShardFaultChaosTwoEdges(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run is seconds-long")
	}
	topo, err := Build(Options{
		Arch:        ESRBES,
		Algo:        AlgCachedEJB,
		Shards:      2,
		EdgeServers: 2,
		Populate:    trade.PopulateConfig{Users: 20, Symbols: 40, HoldingsPerUser: 2},
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer topo.Close()

	plan := latency.FaultPlan{
		Seed:          11,
		ResetRate:     0.10,
		ResetAfterMax: 48 * 1024,
		StallRate:     0.01,
		StallFor:      10 * time.Millisecond,
		TruncateRate:  0.005,
	}
	topo.SetFaults(&plan)
	defer topo.SetFaults(nil)

	var wg sync.WaitGroup
	results := make([]loadgen.Result, 2)
	errs := make([]error, 2)
	for edge := 0; edge < 2; edge++ {
		client, err := topo.NewWebClientFor(edge)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(edge int) {
			defer wg.Done()
			results[edge], errs[edge] = loadgen.Run(context.Background(), loadgen.Config{
				Clients: []*appserver.Client{client},
				Generators: []*trade.Generator{trade.NewGenerator(trade.GeneratorConfig{
					Seed: int64(100 + edge), Users: 20, Symbols: 40,
				})},
				Sessions: 25,
			})
		}(edge)
	}
	wg.Wait()

	for i, p := range topo.proxies {
		if p.FaultStats() == (latency.FaultStats{}) {
			t.Errorf("no faults were injected on shard %d's path", i)
		}
	}
	for edge := 0; edge < 2; edge++ {
		if errs[edge] != nil && !errors.Is(errs[edge], loadgen.ErrAbandoned) {
			t.Fatalf("edge %d: %v", edge, errs[edge])
		}
		r := results[edge]
		if rate := r.SuccessRate(); rate < 0.9 {
			t.Errorf("edge %d success rate %.2f, want >= 0.9 (%+v)", edge, rate, r)
		}
	}
	// No shard is left wedged: every in-doubt transaction was decided or
	// presumed aborted.
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		wedged := 0
		for _, s := range topo.Stores {
			wedged += s.PreparedCount()
		}
		if wedged == 0 {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	for i, s := range topo.Stores {
		if n := s.PreparedCount(); n != 0 {
			t.Errorf("shard %d wedged with %d prepared transactions", i, n)
		}
	}
}
