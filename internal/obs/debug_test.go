package obs

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestDebugEndpointsSmoke starts a real debug listener and exercises
// every endpoint the daemons expose behind -debug-addr.
func TestDebugEndpointsSmoke(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("smoke.requests").Add(3)
	reg.Histogram("smoke.latency").Observe(2 * time.Millisecond)
	spans := NewSpanLog(16)
	ctx, id := WithNewTrace(context.Background())
	_, sp := StartSpan(ctx, "smoke.root")
	sp.End()
	spans.add(sp.rec)

	healthy := true
	srv, err := StartDebug("127.0.0.1:0", DebugOptions{
		Registry: reg,
		Spans:    spans,
		Healthy:  func() bool { return healthy },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string, wantStatus int) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s: status %d, want %d\n%s", path, resp.StatusCode, wantStatus, body)
		}
		return string(body)
	}

	if out := get("/metrics", 200); !strings.Contains(out, "counter smoke.requests 3") ||
		!strings.Contains(out, "hist smoke.latency count=1") {
		t.Fatalf("/metrics missing expected lines:\n%s", out)
	}
	if out := get("/metrics?format=json", 200); !strings.Contains(out, `"smoke.requests": 3`) {
		t.Fatalf("/metrics json missing counter:\n%s", out)
	}
	if out := get("/healthz", 200); !strings.Contains(out, "ok") {
		t.Fatalf("/healthz = %q", out)
	}
	healthy = false
	get("/healthz", 503)
	healthy = true

	if out := get("/debug/spans", 200); !strings.Contains(out, "smoke.root") {
		t.Fatalf("/debug/spans missing span:\n%s", out)
	}
	if out := get("/debug/spans?trace="+strconv.FormatUint(id, 10), 200); !strings.Contains(out, "smoke.root") {
		t.Fatalf("/debug/spans?trace missing span:\n%s", out)
	}
	if out := get("/debug/pprof/", 200); !strings.Contains(out, "goroutine") {
		t.Fatalf("/debug/pprof/ index unexpected:\n%s", out)
	}
}

// TestDebugLimitParam pins the narrowed debug surface: the polling
// parameters the endpoints used to take (limit, since, format=json on
// the span and event logs, format=prom on /metrics) are 400s under the
// "malformed query parameters are rejected, never silently defaulted"
// rule instead of falling through to the text listing, and the views
// that remain answer as before.
func TestDebugLimitParam(t *testing.T) {
	spans := NewSpanLog(64)
	ctx, id := WithNewTrace(context.Background())
	for i := 0; i < 8; i++ {
		_, sp := StartSpan(ctx, "limit.span")
		sp.End()
		spans.add(sp.rec)
	}
	events := NewEventLog(64)
	for i := 0; i < 8; i++ {
		events.Emit(Event{Type: EventConflict, Op: "buy"})
	}
	srv, err := StartDebug("127.0.0.1:0", DebugOptions{
		Registry: NewRegistry(),
		Spans:    spans,
		Events:   events,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string, wantStatus int) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s: status %d, want %d\n%s", path, resp.StatusCode, wantStatus, body)
		}
		return string(body)
	}

	for _, gone := range []string{
		"/metrics?format=prom",
		"/metrics?format=xml",
		"/metrics?since=1",
		"/debug/spans?format=json",
		"/debug/spans?format=json&since=0",
		"/debug/spans?since=0",
		"/debug/spans?limit=2",
		"/debug/spans?trace=banana",
		"/debug/events?format=json",
		"/debug/events?since=1",
		"/debug/events?limit=2",
	} {
		get(gone, 400)
	}

	if out := get("/debug/spans?n=2", 200); strings.Count(out, "limit.span") != 2 {
		t.Fatalf("/debug/spans?n=2 listed:\n%s", out)
	}
	if out := get("/debug/spans", 200); strings.Count(out, "limit.span") != 8 {
		t.Fatalf("/debug/spans listed:\n%s", out)
	}
	for _, q := range []string{"?last=1", "?trace=" + strconv.FormatUint(id, 10)} {
		if out := get("/debug/spans"+q, 200); !strings.Contains(out, "limit.span") {
			t.Fatalf("/debug/spans%s missing the trace:\n%s", q, out)
		}
	}
	if out := get("/debug/events", 200); !strings.Contains(out, "events seq=8 dropped=0") ||
		strings.Count(out, "conflict") != 8 {
		t.Fatalf("/debug/events text unexpected:\n%s", out)
	}
}

// TestDebugSpansShowsTheGap: a trace with an orphan span (its parent
// evicted, or recorded in a process whose log this is not) answers as
// WriteWaterfall draws it, INCOMPLETE marker and all; a trace the log
// does not hold, or ?last=1 on an empty log, is a 404.
func TestDebugSpansShowsTheGap(t *testing.T) {
	base := time.Unix(1_000_000, 0)
	recs := []SpanRecord{
		{Trace: 7, Span: 1, Name: "client.interaction", Tier: "client", Start: base, Dur: 5 * time.Millisecond},
		{Trace: 7, Span: 2, Parent: 1, Name: "edge.request", Tier: "edge", Start: base.Add(time.Millisecond), Dur: 3 * time.Millisecond},
		{Trace: 7, Span: 3, Parent: 99, Name: "backend.apply", Tier: "backend", Start: base.Add(2 * time.Millisecond), Dur: time.Millisecond},
	}
	spans := NewSpanLog(16)
	for _, r := range recs {
		spans.add(r)
	}
	var want strings.Builder
	if err := WriteWaterfall(&want, Assemble(recs)[0]); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(want.String(), "INCOMPLETE (2 roots, 1 orphans)") {
		t.Fatalf("waterfall hides the orphan:\n%s", want.String())
	}

	get := func(spans *SpanLog, q string) (int, string) {
		rec := httptest.NewRecorder()
		NewDebugMux(DebugOptions{Registry: NewRegistry(), Spans: spans}).
			ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans"+q, nil))
		return rec.Code, rec.Body.String()
	}
	for _, q := range []string{"?trace=7", "?last=1"} {
		if code, body := get(spans, q); code != 200 || body != want.String() {
			t.Errorf("/debug/spans%s: status %d, body\n%s\nwant\n%s", q, code, body, want.String())
		}
	}
	if code, _ := get(spans, "?trace=8"); code != 404 {
		t.Errorf("/debug/spans?trace=8 (not in the log): status %d, want 404", code)
	}
	if code, _ := get(NewSpanLog(16), "?last=1"); code != 404 {
		t.Errorf("/debug/spans?last=1 on an empty log: status %d, want 404", code)
	}
}
