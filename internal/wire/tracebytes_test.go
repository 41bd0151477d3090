package wire

import (
	"context"
	"testing"

	"edgeejb/internal/obs"
)

// TestTraceBytesCountedApart: a traced request's trace/span pair is
// counted on the wire, and apart, as TraceBytes, by the client that
// sent it and the server that read it, in the totals and under the
// request's op; Sub and MergeStats keep it, and SystemBytes leaves it
// out. The same request untraced counts none.
func TestTraceBytesCountedApart(t *testing.T) {
	srv := startTestServer(t)
	c := NewClient(srv.Addr())
	t.Cleanup(func() { c.Close() })
	req := &testReq{Op: "echo", Payload: "abc"}
	if err := c.Call(context.Background(), req, new(testResp)); err != nil {
		t.Fatal(err)
	}
	untraced, srvUntraced := c.Stats(), srv.Stats()
	if untraced.TraceBytes != 0 || srvUntraced.TraceBytes != 0 {
		t.Fatalf("an untraced call counted trace bytes: client %d, server %d", untraced.TraceBytes, srvUntraced.TraceBytes)
	}
	ctx, _ := obs.WithNewTrace(context.Background())
	if err := c.Call(ctx, req, new(testResp)); err != nil {
		t.Fatal(err)
	}
	for side, d := range map[string]Stats{
		"client": c.Stats().Sub(untraced),
		"server": srv.Stats().Sub(srvUntraced),
	} {
		if d.TraceBytes != tracePairBytes || d.Ops["echo"].TraceBytes != tracePairBytes {
			t.Errorf("%s: traced call counted %d trace bytes (%d under its op), want %d", side, d.TraceBytes, d.Ops["echo"].TraceBytes, tracePairBytes)
		}
		if d.SystemBytes() != untraced.Bytes() {
			t.Errorf("%s: traced call's system bytes %d, the untraced call's %d", side, d.SystemBytes(), untraced.Bytes())
		}
	}
	if m := MergeStats(c.Stats(), c.Stats()); m.TraceBytes != 2*tracePairBytes || m.Ops["echo"].TraceBytes != 2*tracePairBytes {
		t.Errorf("merged trace bytes %d (%d under the op), want %d", m.TraceBytes, m.Ops["echo"].TraceBytes, 2*tracePairBytes)
	}
}
