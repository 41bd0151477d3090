package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"edgeejb/internal/trade"
)

// tiny runs a workload at a scale the unit tests can afford: the same
// topology and mix, a few sessions, a token delay on the proxied hop.
func tiny(w workload) workload {
	w.roundSessions, w.warmupSessions = 4*w.edges, 4*w.edges
	if w.delay > 0 {
		w.delay = 200 * time.Microsecond
	}
	return w
}

// Same seed, same step stream and — with one client — the same traffic
// on the proxied hop; another seed, another stream.
func TestWorkloadsAreSeeded(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			once := func(seed int64) *run {
				t.Helper()
				r, err := runPhase(ctx, tiny(w), seed, 0, 1, time.Time{})
				if err != nil {
					t.Fatal(err)
				}
				if r.phase.total.failed() != 0 || r.phase.total.attempted == 0 {
					t.Fatalf("%d of %d interactions failed: %+v", r.phase.total.failed(), r.phase.total.attempted, r.phase.total.fails)
				}
				return r
			}
			a, b, other := once(7), once(7), once(8)
			if a.stepHash != b.stepHash {
				t.Errorf("seed 7 gave step hashes %x and %x", a.stepHash, b.stepHash)
			}
			if a.stepHash == other.stepHash {
				t.Errorf("seeds 7 and 8 gave the same step hash %x", a.stepHash)
			}
			if w.edges > 1 {
				return
			}
			// A keep-alive or a redial now and then adds a round trip. At
			// this scale (some 170 round trips) one is already over the
			// 0.5 % selfcheck.sh holds full-size runs to, so allow two.
			ca, cb := a.phase.counted, b.phase.counted
			if a.phase.fixed.attempted != b.phase.fixed.attempted {
				t.Errorf("%d then %d interactions at the same seed", a.phase.fixed.attempted, b.phase.fixed.attempted)
			}
			if ca.sharedRT == 0 || math.Abs(ca.sharedRT-cb.sharedRT) > math.Max(2, 0.005*ca.sharedRT) {
				t.Errorf("shared round trips: %v then %v at the same seed", ca.sharedRT, cb.sharedRT)
			}
			perRT := ca.sharedBytes / ca.sharedRT
			if ca.sharedBytes == 0 || math.Abs(ca.sharedBytes-cb.sharedBytes) > math.Max(2*perRT, 0.005*ca.sharedBytes) {
				t.Errorf("shared bytes: %v then %v at the same seed (%.0f a round trip)", ca.sharedBytes, cb.sharedBytes, perRT)
			}
		})
	}
}

// However long a run lasts, no portfolio outgrows twice its populated
// size, so a late round costs what an early one does.
func TestPortfoliosStayBounded(t *testing.T) {
	for _, w := range workloads {
		bought := make(map[string]int)
		var streams []*stream
		for i := 0; i < w.edges; i++ {
			streams = append(streams, newStream(w, 7, i, "c", i, bought))
		}
		buys := 0
		for round := 0; round < 20; round++ {
			for leg := 0; leg < w.edges; leg++ {
				for _, s := range streams {
					for _, sess := range s.sessions(w.roundSessions/w.edges, leg) {
						for _, st := range sess {
							if st.Action == trade.ActionBuy {
								buys++
							}
						}
					}
				}
			}
		}
		if buys == 0 {
			t.Errorf("%s: no buys in twenty rounds", w.name)
		}
		for user, n := range bought {
			if held := holdingsPerUser + n; held < 0 || held > 2*holdingsPerUser {
				t.Errorf("%s: %s holds %d after twenty rounds", w.name, user, held)
			}
		}
	}
}

// The traced run must see what the untraced run sees, and its spans must
// add up: nothing outside an interaction, no negative self time.
func TestTracedRunConserves(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			r, err := runPhase(ctx, tiny(w), 7, 0, 1, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			tr := r.trace
			if tr.ixn != r.phase.total.attempted || tr.orphans != 0 || tr.minSelfNs < 0 {
				t.Errorf("%d root spans for %d interactions, %d orphan spans, least self time %d ns",
					tr.ixn, r.phase.total.attempted, tr.orphans, tr.minSelfNs)
			}
			if tr.edgeCalls <= 0 || tr.dbCalls <= 0 {
				t.Errorf("edge calls %v, db calls %v per interaction", tr.edgeCalls, tr.dbCalls)
			}
			if (w.arch == archRBES) != (tr.backendDBCalls > 0) {
				t.Errorf("backend.db_calls_per_ixn = %v on this topology", tr.backendDBCalls)
			}
			for _, rec := range tr.records {
				if rec.Parent >= rec.ID || rec.EndNs < rec.StartNs {
					t.Fatalf("malformed trace record %+v", rec)
				}
			}
		})
	}
}

// BENCHMARK.json names exactly the workloads and metrics the command
// reports, with the units and bounds declared in metrics.go.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why || !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %+v, workloads.go has %s: %s", i, got, w.name, w.why)
		}
	}

	// What the command prints, at a tiny scale.
	ctx := context.Background()
	w := tiny(workloads[0])
	o := options{seed: 7, seconds: 0.05}
	e2e, err := endToEndRun(ctx, w, o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := perLayerRun(ctx, w, o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	if len(spec.EndToEnd) != len(endToEnd) || len(e2e.Metrics) != len(endToEnd) {
		t.Fatalf("end-to-end metrics: %d in BENCHMARK.json, %d declared, %d printed", len(spec.EndToEnd), len(endToEnd), len(e2e.Metrics))
	}
	for i, d := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, metrics.go has %+v", i, got, d)
		}
		if m, ok := e2e.Metrics[d.name]; !ok || m.Unit != d.unit || m.Value == 0 || !name.MatchString(d.name) {
			t.Errorf("end-to-end metric %s printed as %+v (present %v)", d.name, m, ok)
		}
	}
	defs := perLayer()
	if len(spec.PerLayer) != len(defs) || len(layers.Metrics) != len(defs) || len(defs) > 128 {
		t.Fatalf("per-layer metrics: %d in BENCHMARK.json, %d declared, %d printed", len(spec.PerLayer), len(defs), len(layers.Metrics))
	}
	for i, d := range defs {
		got := spec.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, metrics.go has %+v", i, got, d)
		}
		if m, ok := layers.Metrics[d.name]; !ok || m.Unit != d.unit || !name.MatchString(d.name) {
			t.Errorf("per-layer metric %s printed as %+v (present %v)", d.name, m, ok)
		}
	}
}
