package obs

import (
	"context"
	"encoding/binary"
	"strings"
	"testing"
	"time"
)

func TestTraceContext(t *testing.T) {
	ctx := context.Background()
	if TraceID(ctx) != 0 {
		t.Fatal("background context should carry no trace")
	}
	ctx2, id := WithNewTrace(ctx)
	if id == 0 || TraceID(ctx2) != id {
		t.Fatalf("WithNewTrace: id=%d, TraceID=%d", id, TraceID(ctx2))
	}
	if WithTrace(ctx, 0) != ctx {
		t.Fatal("WithTrace(0) must be a no-op")
	}
}

func TestStartSpanUntracedIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "noop")
	if sp != nil {
		t.Fatal("span on untraced context must be nil")
	}
	if ctx2 != ctx {
		t.Fatal("untraced StartSpan must return ctx unchanged")
	}
	sp.End() // must not panic
}

func TestSpanParentageAndLog(t *testing.T) {
	log := NewSpanLog(16)
	ctx, id := WithNewTrace(context.Background())
	ctx, root := StartSpan(ctx, "root")
	_, child := StartSpan(ctx, "child")
	time.Sleep(time.Millisecond)
	// Record into a private log to keep the assertion hermetic.
	child.rec.Dur = time.Since(child.rec.Start)
	log.add(child.rec)
	root.rec.Dur = time.Since(root.rec.Start)
	log.add(root.rec)

	traces := Assemble(log.Recent(0))
	if len(traces) != 1 || traces[0].ID != id || len(traces[0].Spans) != 2 {
		t.Fatalf("got %d traces, want one of 2 spans", len(traces))
	}
	var rootRec, childRec SpanRecord
	for _, s := range traces[0].Spans {
		switch s.Name {
		case "root":
			rootRec = s.SpanRecord
		case "child":
			childRec = s.SpanRecord
		}
	}
	if childRec.Parent != rootRec.Span {
		t.Fatalf("child parent = %d, want root span %d", childRec.Parent, rootRec.Span)
	}
	if rootRec.Parent != 0 {
		t.Fatalf("root parent = %d, want 0", rootRec.Parent)
	}

	var sb strings.Builder
	if err := WriteWaterfall(&sb, traces[0]); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "root") || !strings.Contains(out, "  +") || !strings.Contains(out, "child") {
		t.Fatalf("waterfall missing spans or the child's indent:\n%s", out)
	}
}

func TestSpanEndFeedsDefaultRegistry(t *testing.T) {
	before := Default.Histogram("span.obs_test").Snapshot().Count
	ctx, _ := WithNewTrace(context.Background())
	_, sp := StartSpan(ctx, "obs_test")
	sp.End()
	after := Default.Histogram("span.obs_test").Snapshot().Count
	if after != before+1 {
		t.Fatalf("span histogram count = %d, want %d", after, before+1)
	}
}

func TestSpanLogRingWraps(t *testing.T) {
	log := NewSpanLog(4)
	for i := 1; i <= 10; i++ {
		log.add(SpanRecord{Trace: uint64(i), Span: uint64(i), Name: "s", Start: time.Now()})
	}
	recent := log.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("ring holds %d, want 4", len(recent))
	}
	if recent[0].Trace != 7 || recent[3].Trace != 10 {
		t.Fatalf("ring order wrong: %+v", recent)
	}
	if got := lastTrace(recent); got != 10 {
		t.Fatalf("last trace = %d, want 10", got)
	}
}

func TestSpanTierLabels(t *testing.T) {
	ctx, _ := WithNewTrace(context.Background())
	for name, tier := range map[string]string{
		"client.interaction": "client",
		"edge.request":       "edge",
		"slicache.commit":    "edge",
		"backend.apply":      "backend",
		"sqlstore.apply":     "db",
	} {
		_, sp := StartSpan(ctx, name)
		sp.End()
		if sp.rec.Tier != tier {
			t.Errorf("span %q tier = %q, want %q", name, sp.rec.Tier, tier)
		}
	}
	if got := TierOf("mystery.op"); got != "proc" {
		t.Errorf("unknown prefix tier = %q, want proc", got)
	}
}

func TestWithRemoteParent(t *testing.T) {
	ctx := WithRemoteParent(context.Background(), 0, 99)
	if TraceID(ctx) != 0 || SpanID(ctx) != 0 {
		t.Fatal("zero trace must be a no-op")
	}
	ctx = WithRemoteParent(context.Background(), 42, 99)
	if TraceID(ctx) != 42 || SpanID(ctx) != 99 {
		t.Fatalf("remote parent: trace=%d span=%d, want 42/99", TraceID(ctx), SpanID(ctx))
	}
	// The first span opened under a remote parent inherits it.
	_, sp := StartSpan(ctx, "edge.request")
	sp.End()
	if sp.rec.Parent != 99 || sp.rec.Trace != 42 {
		t.Fatalf("span under remote parent: trace=%d parent=%d, want 42/99", sp.rec.Trace, sp.rec.Parent)
	}
}

func TestSpanLogDroppedCount(t *testing.T) {
	log := NewSpanLog(4)
	for i := 1; i <= 10; i++ {
		log.add(SpanRecord{Trace: uint64(i), Span: uint64(i), Name: "s", Start: time.Now()})
	}
	if got := log.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
}

// TestTraceIDWidthIgnoresTheClock: a trace ID is a 9-byte uvarint on
// either side of the clock's bit 47 flipping, which the seed's shift
// moves to bit 63 (a 10-byte uvarint) once every 39 hours.
func TestTraceIDWidthIgnoresTheClock(t *testing.T) {
	saved, savedSpan := traceIDs.Load(), spanIDs.Load()
	defer func() {
		traceIDs.Store(saved)
		spanIDs.Store(savedSpan)
	}()
	for _, now := range []uint64{1<<47 - 1, 1 << 47, 1<<48 - 1, uint64(time.Now().UnixNano())} {
		seedIDs(now)
		id := NewTraceID()
		if n := len(binary.AppendUvarint(nil, id)); n != 9 {
			t.Errorf("seeded at %#x: trace ID %#x is a %d-byte uvarint, want 9", now, id, n)
		}
	}
}
