package wire

import (
	"context"
	"testing"

	"edgeejb/internal/obs"
)

// TestTraceBytesCountedApart: a traced request's trace/span pair is
// counted on the wire, and apart, as TraceBytes, by the client that
// sent it, in the totals and under the request's op; Sub and MergeStats
// keep it, and SystemBytes leaves it out. The same request untraced
// counts none.
func TestTraceBytesCountedApart(t *testing.T) {
	srv := startTestServer(t)
	c := NewClient(srv.Addr())
	t.Cleanup(func() { c.Close() })
	req := &testReq{Op: "echo", Payload: "abc"}
	if err := c.Call(context.Background(), req, new(testResp)); err != nil {
		t.Fatal(err)
	}
	untraced := c.Stats()
	if untraced.TraceBytes != 0 {
		t.Fatalf("an untraced call counted %d trace bytes", untraced.TraceBytes)
	}
	ctx, _ := obs.WithNewTrace(context.Background())
	if err := c.Call(ctx, req, new(testResp)); err != nil {
		t.Fatal(err)
	}
	d := c.Stats().Sub(untraced)
	if d.TraceBytes != tracePairBytes || d.Ops["echo"].TraceBytes != tracePairBytes {
		t.Errorf("traced call counted %d trace bytes (%d under its op), want %d", d.TraceBytes, d.Ops["echo"].TraceBytes, tracePairBytes)
	}
	if d.SystemBytes() != untraced.Bytes() {
		t.Errorf("traced call's system bytes %d, the untraced call's %d", d.SystemBytes(), untraced.Bytes())
	}
	if m := MergeStats(c.Stats(), c.Stats()); m.TraceBytes != 2*tracePairBytes || m.Ops["echo"].TraceBytes != 2*tracePairBytes {
		t.Errorf("merged trace bytes %d (%d under the op), want %d", m.TraceBytes, m.Ops["echo"].TraceBytes, 2*tracePairBytes)
	}
}
