package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"edgeejb/internal/obs"
	"edgeejb/internal/trade"
)

// TestTraceAssemblySmoke is the end-to-end check CI runs on the tracing
// pipeline: a short in-process ES/RBES sweep, spans collected from the
// process ring, assembled into trees, and rendered as trace-event JSON.
// It asserts the ISSUE acceptance criteria — every assembled trace has
// a root, at least one write interaction (a buy or sell, the only
// actions that reach backend.apply) spans the edge, backend, and db
// tiers as one complete tree, and the Perfetto export parses.
func TestTraceAssemblySmoke(t *testing.T) {
	// Isolate this test's spans in a private ring big enough that
	// nothing is evicted mid-run.
	log := obs.NewSpanLog(1 << 16)
	saved := obs.DefaultSpans
	obs.DefaultSpans = log
	defer func() { obs.DefaultSpans = saved }()

	topo, err := Build(Options{
		Arch:     ESRBES,
		Algo:     AlgCachedEJB,
		Populate: trade.PopulateConfig{Users: 10, Symbols: 20, HoldingsPerUser: 2},
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer topo.Close()

	if _, err := RunSweepOn(context.Background(), topo, Scale{
		Workload: trade.GeneratorConfig{Seed: 7, Users: 10, Symbols: 20},
		Warmup:   1,
		Sessions: 4,
		Batches:  4,
	}, []time.Duration{0}); err != nil {
		t.Fatalf("run: %v", err)
	}

	traces := obs.Assemble(log.Recent(0))
	if len(traces) == 0 {
		t.Fatal("sweep produced no traces")
	}
	if dropped := log.Dropped(); dropped != 0 {
		t.Fatalf("span ring evicted %d spans; grow the test ring", dropped)
	}

	crossTier := 0
	for _, tr := range traces {
		if len(tr.Roots) == 0 {
			t.Fatalf("trace %d has no root", tr.ID)
		}
		if !tr.Complete {
			t.Fatalf("trace %d incomplete (%d roots, %d orphans) with zero drops",
				tr.ID, len(tr.Roots), tr.Orphans)
		}
		tiers := make(map[string]bool)
		for _, tier := range tr.Tiers() {
			tiers[tier] = true
		}
		if tiers["edge"] && tiers["backend"] && tiers["db"] {
			crossTier++
			// The cross-tier hops must hang off the one root, not float.
			if root := tr.Root(); root.Name != "client.interaction" {
				t.Fatalf("cross-tier trace %d rooted at %q", tr.ID, root.Name)
			}
		}
	}
	if crossTier == 0 {
		t.Fatal("no trace spans edge+backend+db; commit path lost its spans or parenting broke")
	}
	t.Logf("%d traces assembled, %d cross-tier through the back end", len(traces), crossTier)

	// The Perfetto export must be valid trace-event JSON with one event
	// per span.
	var buf bytes.Buffer
	if err := obs.WriteTraceEvents(&buf, traces); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("Perfetto JSON does not parse: %v", err)
	}
	spans := 0
	for _, ev := range file.TraceEvents {
		if ev.Ph == "X" {
			spans++
			if ev.Pid == 0 {
				t.Fatal("span event missing its tier lane")
			}
		}
	}
	want := 0
	for _, tr := range traces {
		want += len(tr.Spans)
	}
	if spans != want {
		t.Fatalf("Perfetto export has %d span events, assembly has %d spans", spans, want)
	}
}

// TestDebugSpansDrawTheArtifactWaterfall: a daemon's /debug/spans and a
// run's waterfalls.txt draw one trace the same way. For a traced buy on
// ES/RBES — edge, back-end and store in one tree — ?trace=<id> and
// ?last=1 answer exactly WriteWaterfall of the assembled trace.
func TestDebugSpansDrawTheArtifactWaterfall(t *testing.T) {
	log := obs.NewSpanLog(1 << 12)
	saved := obs.DefaultSpans
	obs.DefaultSpans = log
	defer func() { obs.DefaultSpans = saved }()

	topo, err := Build(Options{
		Arch:     ESRBES,
		Algo:     AlgCachedEJB,
		Populate: trade.PopulateConfig{Users: 4, Symbols: 4, HoldingsPerUser: 1},
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer topo.Close()
	client := topo.NewWebClient()
	defer client.Close()

	ctx, id := obs.WithNewTrace(context.Background())
	ctx, span := obs.StartSpan(ctx, "client.interaction")
	resp, err := client.DoStep(ctx, trade.Step{Action: trade.ActionBuy, UserID: trade.UserID(1), Symbol: trade.SymbolID(1), Quantity: 1})
	span.End()
	if err != nil || !resp.OK {
		t.Fatalf("buy: err=%v resp=%+v", err, resp)
	}

	var tr *obs.Trace
	for _, a := range obs.Assemble(log.Recent(0)) {
		if a.ID == id {
			tr = a
		}
	}
	if tr == nil || !tr.Complete {
		t.Fatalf("trace %d missing or incomplete: %+v", id, tr)
	}
	if got := strings.Join(tr.Tiers(), ">"); !strings.Contains(got, "backend") || !strings.Contains(got, "db") {
		t.Fatalf("buy trace touches tiers %s, want edge, backend and db", got)
	}
	var want bytes.Buffer
	if err := obs.WriteWaterfall(&want, tr); err != nil {
		t.Fatal(err)
	}

	mux := obs.NewDebugMux(obs.DebugOptions{Registry: obs.NewRegistry(), Spans: log})
	for _, q := range []string{"?trace=" + strconv.FormatUint(id, 10), "?last=1"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans"+q, nil))
		if rec.Code != 200 || rec.Body.String() != want.String() {
			t.Errorf("/debug/spans%s: status %d, body\n%s\nwant WriteWaterfall's\n%s", q, rec.Code, rec.Body, want.String())
		}
	}
}
