package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// rec builds a SpanRecord relative to a fixed base time.
func rec(trace, span, parent uint64, name string, startMs, durMs int) SpanRecord {
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	return SpanRecord{
		Trace:  trace,
		Span:   span,
		Parent: parent,
		Name:   name,
		Tier:   TierOf(name),
		Start:  base.Add(time.Duration(startMs) * time.Millisecond),
		Dur:    time.Duration(durMs) * time.Millisecond,
	}
}

func TestAssembleOutOfOrder(t *testing.T) {
	// Children delivered before their parents.
	traces := Assemble([]SpanRecord{
		rec(1, 30, 20, "backend.apply", 2, 4),
		rec(1, 10, 0, "client.interaction", 0, 10),
		rec(1, 20, 10, "edge.request", 1, 8),
	})
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if !tr.Complete {
		t.Fatalf("trace should be complete: %d roots, %d orphans", len(tr.Roots), tr.Orphans)
	}
	root := tr.Root()
	if root.Name != "client.interaction" {
		t.Fatalf("root = %q, want client.interaction", root.Name)
	}
	if len(root.Children) != 1 || root.Children[0].Name != "edge.request" {
		t.Fatalf("bad tree under root: %+v", root.Children)
	}
	if got := root.Children[0].Children[0].Name; got != "backend.apply" {
		t.Fatalf("grandchild = %q, want backend.apply", got)
	}
	if got := strings.Join(tr.Tiers(), ">"); got != "client>edge>backend" {
		t.Fatalf("tiers = %q", got)
	}
	if tr.Duration() != 10*time.Millisecond {
		t.Fatalf("duration = %v, want 10ms", tr.Duration())
	}
}

func TestAssembleMissingParent(t *testing.T) {
	traces := Assemble([]SpanRecord{
		rec(7, 1, 0, "client.interaction", 0, 10),
		// Parent span 99 was never exported (evicted from the ring).
		rec(7, 2, 99, "backend.apply", 3, 2),
	})
	tr := traces[0]
	if tr.Complete {
		t.Fatal("trace with a missing parent must be incomplete")
	}
	if len(tr.Roots) != 2 || tr.Orphans != 1 {
		t.Fatalf("roots=%d orphans=%d, want 2 and 1", len(tr.Roots), tr.Orphans)
	}
}

func TestAssembleDedupAndSkipInvalid(t *testing.T) {
	r := rec(3, 5, 0, "client.interaction", 0, 1)
	dup := r
	dup.Name = "later.duplicate"
	traces := Assemble([]SpanRecord{
		r,
		dup,                     // same (trace, span): dropped
		rec(0, 9, 0, "x", 0, 1), // zero trace: untraced, skipped
		rec(3, 0, 0, "x", 0, 1), // zero span id: invalid, skipped
	})
	if len(traces) != 1 || len(traces[0].Spans) != 1 {
		t.Fatalf("dedup failed: %d traces, %d spans", len(traces), len(traces[0].Spans))
	}
	if got := traces[0].Spans[0].Name; got != "client.interaction" {
		t.Fatalf("first occurrence should win; got %q", got)
	}
}

func TestAssembleCycleGuard(t *testing.T) {
	// Corrupt input: two spans each claiming the other as parent, with no
	// true root. The cycle guard must still surface them.
	traces := Assemble([]SpanRecord{
		rec(9, 1, 2, "edge.request", 0, 5),
		rec(9, 2, 1, "backend.apply", 1, 3),
	})
	tr := traces[0]
	if len(tr.Spans) != 2 {
		t.Fatalf("cycle spans lost: %d", len(tr.Spans))
	}
	if tr.Complete {
		t.Fatal("cyclic trace must not report complete")
	}
	if len(tr.Roots) == 0 {
		t.Fatal("cycle guard promoted no roots")
	}
}

func TestSlowestAndMedians(t *testing.T) {
	var recs []SpanRecord
	for i := 0; i < 5; i++ {
		// Durations 1..5 ms, trace IDs 101..105.
		recs = append(recs,
			rec(uint64(101+i), uint64(1+i), 0, "client.interaction", i*20, i+1))
	}
	traces := Assemble(recs)
	slow := Slowest(traces, 2)
	if len(slow) != 2 || slow[0].ID != 105 || slow[1].ID != 104 {
		t.Fatalf("Slowest: got %v", []uint64{slow[0].ID, slow[1].ID})
	}
	med := Medians(traces, 1)
	if len(med) != 1 || med[0].ID != 103 {
		t.Fatalf("Medians: got trace %d, want 103", med[0].ID)
	}
	if got := Medians(traces, 10); len(got) != 5 {
		t.Fatalf("Medians with n > len: got %d, want all 5", len(got))
	}
	if got := Slowest(traces, 0); len(got) != 0 {
		t.Fatalf("Slowest(0): got %d", len(got))
	}
}

func TestWriteWaterfall(t *testing.T) {
	traces := Assemble([]SpanRecord{
		rec(42, 1, 0, "client.interaction", 0, 10),
		rec(42, 2, 1, "edge.request", 1, 8),
	})
	var b bytes.Buffer
	if err := WriteWaterfall(&b, traces[0]); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"trace 42 — 2 spans, tiers client>edge, 10ms, complete",
		"client.interaction",
		"edge.request",
		"+1ms",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("waterfall missing %q:\n%s", want, out)
		}
	}
	// Child indented under parent.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[2], "  +") {
		t.Fatalf("bad indentation:\n%s", out)
	}
}

func TestWriteWaterfallIncomplete(t *testing.T) {
	traces := Assemble([]SpanRecord{
		rec(8, 2, 99, "backend.apply", 0, 2),
	})
	var b bytes.Buffer
	if err := WriteWaterfall(&b, traces[0]); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "INCOMPLETE (1 roots, 1 orphans)") {
		t.Fatalf("missing incomplete marker:\n%s", b.String())
	}
}

func TestWriteTraceEvents(t *testing.T) {
	traces := Assemble([]SpanRecord{
		rec(42, 1, 0, "client.interaction", 0, 10),
		rec(42, 2, 1, "edge.request", 1, 8),
		rec(42, 3, 2, "backend.apply", 3, 4),
		rec(43, 4, 0, "client.interaction", 20, 5),
	})
	var b bytes.Buffer
	if err := WriteTraceEvents(&b, traces); err != nil {
		t.Fatal(err)
	}

	// The output must be valid JSON in the trace-event dialect.
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b.Bytes(), &file); err != nil {
		t.Fatalf("trace-event JSON does not parse: %v", err)
	}
	if file.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}

	var meta, complete int
	pids := make(map[string]int) // tier lane name -> pid
	for _, ev := range file.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			pids[ev.Args["name"].(string)] = ev.Pid
		case "X":
			complete++
			if ev.Dur <= 0 {
				t.Fatalf("span %q has no duration", ev.Name)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 3 { // client, edge, backend lanes
		t.Fatalf("got %d metadata events, want 3", meta)
	}
	if complete != 4 {
		t.Fatalf("got %d span events, want 4", complete)
	}
	// Tier lanes keep the architectural top-down order.
	if !(pids["client"] < pids["edge"] && pids["edge"] < pids["backend"]) {
		t.Fatalf("tier lane order wrong: %v", pids)
	}
	// The edge.request event carries its parent linkage.
	for _, ev := range file.TraceEvents {
		if ev.Name == "edge.request" {
			if ev.Args["parent"] == nil {
				t.Fatalf("edge.request missing parent arg: %v", ev.Args)
			}
			if ev.Ts != 1000 { // 1ms after the global origin, in µs
				t.Fatalf("edge.request ts = %v µs, want 1000", ev.Ts)
			}
		}
	}
}

func TestAssembleFromLog(t *testing.T) {
	// Finished spans land in the process-wide DefaultSpans ring; swap in
	// a private one so this test sees only its own spans.
	log := NewSpanLog(64)
	saved := DefaultSpans
	DefaultSpans = log
	defer func() { DefaultSpans = saved }()

	ctx, _ := WithNewTrace(context.Background())
	ctx, root := StartSpan(ctx, "client.interaction")
	_, child := StartSpan(ctx, "edge.request")
	child.End()
	root.End()

	traces := Assemble(log.Recent(0))
	if len(traces) != 1 || !traces[0].Complete || len(traces[0].Spans) != 2 {
		t.Fatalf("bad assembly from live log: %d traces", len(traces))
	}
}
