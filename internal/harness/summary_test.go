package harness

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"edgeejb/internal/loadgen"
	"edgeejb/internal/obs"
	"edgeejb/internal/regress"
	"edgeejb/internal/stats"
	"edgeejb/internal/trade"
	"edgeejb/internal/wire"
)

// fullSummaryInput feeds BuildSummary every family it builds.
func fullSummaryInput() SummaryInput {
	eval := &Evaluation{Sweeps: map[Pair]Sweep{
		{ESRDB, AlgVanillaEJB}: {
			Pair: Pair{ESRDB, AlgVanillaEJB},
			Points: []Point{
				{Step: Step{OneWayDelayMs: 0}, Pass: Pass{
					Load: loadgen.Result{Interactions: 100, Latency: stats.Summary{N: 100, Mean: 1.5}, BatchMeans: []float64{1.4, 1.6}},
					Wire: wire.Stats{RoundTrips: 1200, BytesSent: 400000},
				}},
				{Step: Step{OneWayDelayMs: 0.5}, Pass: Pass{
					Load: loadgen.Result{Interactions: 100, Latency: stats.Summary{N: 100, Mean: 13.5}, BatchMeans: []float64{13.4, 13.6}},
					Wire: wire.Stats{RoundTrips: 1220, BytesSent: 410000},
				}},
			},
			Fit: stats.Fit{Slope: 24.0, R2: 0.99},
		},
	}}
	return SummaryInput{
		Args: []string{"-fig7"},
		Eval: eval,
		Throughput: []Sweep{{
			Pair:   Pair{ESRBES, AlgCachedEJB},
			Points: []Point{{Step: Step{Clients: 4}, Pass: Pass{Load: result(500, 120.5, 0, 0)}}},
		}},
		Shards: []ShardScalingPoint{{Shards: 2, Pass: Pass{
			Load: result(400, 200, 0, 0),
			Metrics: obs.Snapshot{
				Counters:   map[string]uint64{"shard.2pc_commits": 10},
				Histograms: map[string]obs.HistSnapshot{"span.slicache.commit": {Count: 100}},
			},
		}}},
		Counters: map[string]uint64{
			"slicache.finder_hits":   80,
			"slicache.finder_misses": 20,
		},
		Runtime: &obs.Snapshot{
			Counters: map[string]uint64{
				"runtime.allocs_total":      1_000_000,
				"runtime.alloc_bytes_total": 64_000_000,
			},
			Gauges: map[string]int64{"runtime.goroutines_highwater": 42},
		},
	}
}

func TestBuildSummaryNaming(t *testing.T) {
	s := BuildSummary(fullSummaryInput())
	if s.Schema != regress.SchemaV3 {
		t.Fatalf("schema = %q", s.Schema)
	}

	// Every namespace present, with paper names slugged.
	wantKeys := []string{
		"latency.es-rdb.vanilla-ejbs.d0ms.mean_ms",
		"latency.es-rdb.vanilla-ejbs.d0.5ms.mean_ms",
		"wire.es-rdb.vanilla-ejbs.rts_per_interaction",
		"wire.es-rdb.vanilla-ejbs.bytes_per_interaction",
		"sensitivity.es-rdb.vanilla-ejbs",
		"throughput.es-rbes.cached-ejbs.c4.ixn_per_s",
		"shards.s2.committed_per_s",
		"shards.s2.twopc_fraction",
		"cache.finder_hit_ratio",
		"resource.allocs_per_interaction",
		"resource.alloc_bytes_per_interaction",
		"resource.goroutine_high_water",
	}
	for _, k := range wantKeys {
		if _, ok := s.Metrics[k]; !ok {
			t.Errorf("missing metric %q (have %v)", k, s.Names())
		}
	}

	// Kind and direction spot checks: the gate semantics ride on these.
	if m := s.Metrics["wire.es-rdb.vanilla-ejbs.rts_per_interaction"]; m.Kind != regress.KindExact ||
		m.Better != regress.LowerIsBetter || m.Mean != 12.1 || m.N != 2 {
		t.Errorf("wire rts metric = %+v", m)
	}
	if m := s.Metrics["latency.es-rdb.vanilla-ejbs.d0ms.mean_ms"]; m.Kind != regress.KindMeasured ||
		m.Mean != 1.5 || m.N != 100 {
		t.Errorf("latency metric = %+v", m)
	}
	if m := s.Metrics["sensitivity.es-rdb.vanilla-ejbs"]; m.Kind != regress.KindMeasured || m.Mean != 24.0 {
		t.Errorf("sensitivity metric = %+v", m)
	}
	if m := s.Metrics["throughput.es-rbes.cached-ejbs.c4.ixn_per_s"]; m.Kind != regress.KindMeasured ||
		m.Better != regress.HigherIsBetter {
		t.Errorf("throughput metric = %+v", m)
	}
	if m := s.Metrics["shards.s2.twopc_fraction"]; m.Kind != regress.KindMeasured || m.Mean != 0.1 {
		t.Errorf("twopc fraction metric = %+v", m)
	}
	if m := s.Metrics["cache.finder_hit_ratio"]; m.Kind != regress.KindExact || m.Mean != 0.8 ||
		m.Better != regress.HigherIsBetter {
		t.Errorf("hit ratio metric = %+v", m)
	}

	// Resource attribution: interactions sum across eval (200),
	// throughput (500), and shards (400) phases = 1100.
	if m := s.Metrics["resource.allocs_per_interaction"]; m.Kind != regress.KindMeasured ||
		m.Better != regress.LowerIsBetter || m.Mean < 909 || m.Mean > 910 || m.N != 1100 {
		t.Errorf("allocs/ixn metric = %+v", m)
	}
	if m := s.Metrics["resource.goroutine_high_water"]; m.Kind != regress.KindMeasured || m.Mean != 42 {
		t.Errorf("goroutine high-water metric = %+v", m)
	}

	// A self-compare is clean.
	if rep := regress.Compare(s, s); rep.Regressions+rep.Improvements != 0 {
		t.Fatalf("self-compare moved: %+v", rep)
	}
}

// TestBuildSummaryExactFamilies pins which families the gate judges:
// only wire.* and cache.*, the counts a fixed seed and one client
// repeat exactly. A new family is measured until someone shows it is
// exact and adds it here.
func TestBuildSummaryExactFamilies(t *testing.T) {
	s := BuildSummary(fullSummaryInput())
	families := make(map[string]regress.Kind)
	for name, m := range s.Metrics {
		family, _, _ := strings.Cut(name, ".")
		if k, ok := families[family]; ok && k != m.Kind {
			t.Errorf("family %s mixes kinds %s and %s", family, k, m.Kind)
		}
		families[family] = m.Kind
	}
	want := map[string]regress.Kind{
		"wire": regress.KindExact, "cache": regress.KindExact,
		"latency": regress.KindMeasured, "sensitivity": regress.KindMeasured,
		"throughput": regress.KindMeasured, "shards": regress.KindMeasured,
		"resource": regress.KindMeasured,
	}
	if len(families) != len(want) {
		t.Errorf("families %v, want %v", families, want)
	}
	for family, k := range want {
		if families[family] != k {
			t.Errorf("family %s is %q, want %q", family, families[family], k)
		}
	}
}

func TestBuildSummaryEmptyInput(t *testing.T) {
	s := BuildSummary(SummaryInput{})
	if len(s.Metrics) != 0 {
		t.Fatalf("empty input produced metrics: %v", s.Names())
	}
	// NaN sensitivity (single-delay sweep) must not leak into the JSON:
	// NaN is not valid JSON and would poison every later Load.
	s = BuildSummary(SummaryInput{Eval: &Evaluation{Sweeps: map[Pair]Sweep{
		{ESRDB, AlgJDBC}: {
			Pair:   Pair{ESRDB, AlgJDBC},
			Points: []Point{{Pass: Pass{Load: result(1, 0, 1, 0)}}},
			Fit:    stats.Fit{Slope: nan(), R2: nan()},
		},
	}}})
	for name := range s.Metrics {
		if name == "sensitivity.es-rdb.jdbc" {
			t.Fatal("NaN sensitivity emitted")
		}
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

// TestSingleDelaySweepHasNoSensitivity: one delay point fits no line,
// so a measured one-delay sweep prints its sensitivity as n/a and the
// summary carries no sensitivity row for it, rather than a slope of 0.
func TestSingleDelaySweepHasNoSensitivity(t *testing.T) {
	pair := Pair{ESRBES, AlgCachedEJB}
	sweep, err := RunSweep(context.Background(), Options{
		Arch: pair.Arch, Algo: pair.Algo,
		Populate: trade.PopulateConfig{Users: 4, Symbols: 4, HoldingsPerUser: 1},
	}, Scale{
		Workload: trade.GeneratorConfig{Seed: 1, Users: 4, Symbols: 4},
		Warmup:   1,
		Sessions: 2,
	}, []time.Duration{0})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(sweep.Sensitivity()) {
		t.Fatalf("one-delay sensitivity = %v, want NaN", sweep.Sensitivity())
	}
	var b strings.Builder
	writeSweepTable(&b, []Sweep{sweep})
	foot := b.String()[strings.Index(b.String(), "sensitivity"):]
	if foot = foot[:strings.Index(foot, "\n")]; !strings.Contains(foot, "n/a") || strings.Contains(foot, "R²") {
		t.Errorf("sensitivity line = %q, want n/a", foot)
	}
	s := BuildSummary(SummaryInput{Eval: &Evaluation{Sweeps: map[Pair]Sweep{pair: sweep}}})
	for _, name := range s.Names() {
		if strings.HasPrefix(name, "sensitivity.") {
			t.Errorf("one-delay summary carries %s", name)
		}
	}
}
