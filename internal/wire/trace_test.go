package wire

import (
	"context"
	"strconv"
	"testing"

	"edgeejb/internal/obs"
)

// traceHandler echoes back the trace ID its handler context carries,
// recording a server-side span while traced.
type traceHandler struct{}

func (traceHandler) NewRequest() any { return new(testReq) }

func (traceHandler) Handle(ctx context.Context, sess *Session, id uint64, req any) any {
	_, sp := obs.StartSpan(ctx, "wiretest.server")
	sp.End()
	return &testResp{Payload: strconv.FormatUint(obs.TraceID(ctx), 10)}
}

func (traceHandler) Close() {}

// TestTracePropagation proves a trace ID planted in the client context
// crosses the wire into the server handler's context, and that spans
// recorded on both sides stitch into one trace.
func TestTracePropagation(t *testing.T) {
	srv := NewServer(func() ConnHandler { return traceHandler{} })
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr())
	defer c.Close()

	// Untraced call: the header's Trace field stays zero end to end.
	resp := new(testResp)
	if err := c.Call(context.Background(), &testReq{Op: "trace"}, resp); err != nil {
		t.Fatal(err)
	}
	if resp.Payload != "0" {
		t.Fatalf("untraced call delivered trace %q, want 0", resp.Payload)
	}

	// Traced call: the server handler sees the client's trace ID.
	ctx, id := obs.WithNewTrace(context.Background())
	ctx, sp := obs.StartSpan(ctx, "wiretest.client")
	resp = new(testResp)
	if err := c.Call(ctx, &testReq{Op: "trace"}, resp); err != nil {
		t.Fatal(err)
	}
	sp.End()
	if want := strconv.FormatUint(id, 10); resp.Payload != want {
		t.Fatalf("server saw trace %q, want %q", resp.Payload, want)
	}

	// Both hops of the interaction appear under one trace ID. (Client
	// and server share this test process, so they share DefaultSpans.)
	names := make(map[string]bool)
	for _, s := range assembled(t, id).Spans {
		names[s.Name] = true
	}
	if !names["wiretest.client"] || !names["wiretest.server"] {
		t.Fatalf("trace %d spans = %v, want client and server hops", id, names)
	}
}

// assembled returns trace id as assembled from DefaultSpans.
func assembled(t *testing.T, id uint64) *obs.Trace {
	t.Helper()
	for _, tr := range obs.Assemble(obs.DefaultSpans.Recent(0)) {
		if tr.ID == id {
			return tr
		}
	}
	t.Fatalf("trace %d has no spans in DefaultSpans", id)
	return nil
}

// TestSpanParentPropagation proves the frame header carries the caller's
// span ID, so the first server-side span parents under the client-side
// span that made the call — the edge the trace assembler joins on.
func TestSpanParentPropagation(t *testing.T) {
	srv := NewServer(func() ConnHandler { return traceHandler{} })
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr())
	defer c.Close()

	ctx, id := obs.WithNewTrace(context.Background())
	ctx, sp := obs.StartSpan(ctx, "wiretest.client")
	clientSpan := obs.SpanID(ctx)
	if clientSpan == 0 {
		t.Fatal("no span ID on traced client context")
	}
	if err := c.Call(ctx, &testReq{Op: "trace"}, new(testResp)); err != nil {
		t.Fatal(err)
	}
	sp.End()

	// The assembled trace is one tree: the client span, with the server
	// span as its child.
	tr := assembled(t, id)
	if !tr.Complete || tr.Root().Span != clientSpan {
		t.Fatalf("trace %d: complete=%v, want one tree rooted at client span %d", id, tr.Complete, clientSpan)
	}
	var server *obs.SpanNode
	for _, s := range tr.Root().Children {
		if s.Name == "wiretest.server" {
			server = s
		}
	}
	if server == nil {
		t.Fatalf("server-side span not recorded under the client span for trace %d", id)
	}
	if server.Parent != clientSpan {
		t.Fatalf("server span parent = %d, want client span %d", server.Parent, clientSpan)
	}
}
