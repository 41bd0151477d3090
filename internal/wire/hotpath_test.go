package wire

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// TestBackoffDelayNoMaxNeverNegative is the regression test for the
// uncapped-backoff overflow: with no Max set, repeated doubling of a
// time.Duration eventually wraps negative, and a negative delay makes
// Sleep return immediately — a zero-wait retry hammer at exactly the
// attempt counts where the peer is struggling most.
func TestBackoffDelayNoMaxNeverNegative(t *testing.T) {
	b := Backoff{Base: time.Second}
	for _, attempt := range []int{0, 1, 10, 61, 62, 63, 64, 100, 200} {
		if d := b.Delay(attempt); d <= 0 {
			t.Fatalf("Delay(%d) = %v, want > 0", attempt, d)
		}
	}
	// Sanity: a capped schedule still respects the cap at high attempts.
	capped := Backoff{Base: time.Second, Max: time.Minute}
	if d := capped.Delay(200); d != time.Minute {
		t.Fatalf("capped Delay(200) = %v, want %v", d, time.Minute)
	}
}

// failAfterWriter accepts up to limit bytes, then fails mid-write with
// a partial count — the shape a truncated TCP send has.
type failAfterWriter struct {
	limit   int
	written int
}

var errTruncated = errors.New("simulated truncated write")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	room := w.limit - w.written
	if room <= 0 {
		return 0, errTruncated
	}
	if len(p) <= room {
		w.written += len(p)
		return len(p), nil
	}
	w.written += room
	return room, errTruncated
}

// TestWriteFramePartialWriteReportsFlushedBytes is the regression test
// for writeFrame returning 0 on a failed write: the bytes that DID
// reach the socket are real traffic on the measured path, and dropping
// them from Stats.BytesSent skews the byte accounting under fault
// injection.
func TestWriteFramePartialWriteReportsFlushedBytes(t *testing.T) {
	const limit = 10
	fw := newFrameWriter(&failAfterWriter{limit: limit})
	n, err := fw.writeFrame(&frameHeader{ID: 1, Kind: 1}, &testReq{Op: "echo", Payload: "partial write accounting"})
	if err == nil {
		t.Fatal("writeFrame succeeded against a failing writer")
	}
	if n != limit {
		t.Fatalf("writeFrame returned %d flushed bytes, want %d (the bytes the socket accepted)", n, limit)
	}
}

// TestWriteFrameFullFailureReportsZero pins the other edge: when the
// socket accepts nothing, no phantom bytes may be reported.
func TestWriteFrameFullFailureReportsZero(t *testing.T) {
	fw := newFrameWriter(&failAfterWriter{limit: 0})
	n, err := fw.writeFrame(&frameHeader{ID: 1, Kind: 1}, &testReq{Op: "echo"})
	if err == nil {
		t.Fatal("writeFrame succeeded against a dead writer")
	}
	if n != 0 {
		t.Fatalf("writeFrame returned %d flushed bytes, want 0", n)
	}
}

// TestReadFrameReusesPayloadBuffer is the regression test for the
// per-frame payload allocation: the reader's buffer is per-connection
// and grow-only, so same-size frames must decode into the same backing
// array rather than a fresh make([]byte, size) each.
func TestReadFrameReusesPayloadBuffer(t *testing.T) {
	var buf bytes.Buffer
	fw := newFrameWriter(&buf)
	for i := 0; i < 3; i++ {
		if _, err := fw.writeFrame(&frameHeader{ID: uint64(i + 1), Kind: 1}, &testReq{Op: "echo", Payload: "same-size payload"}); err != nil {
			t.Fatal(err)
		}
	}
	fr := newFrameReader(&buf, DefaultMaxFrame)
	if _, err := fr.readFrame(); err != nil {
		t.Fatal(err)
	}
	first := &fr.payload[0]
	for i := 0; i < 2; i++ {
		if _, err := fr.readFrame(); err != nil {
			t.Fatal(err)
		}
		if &fr.payload[0] != first {
			t.Fatalf("frame %d re-allocated the payload buffer", i+2)
		}
	}
}

// BenchmarkWireRoundTrip measures one echo round trip over a live
// connection with self-encoding bodies, the path every product message
// takes; allocs/op is the hot-path number CI budgets (the reused frame
// buffers on both sides are what keep it flat).
func BenchmarkWireRoundTrip(b *testing.B) {
	srv := NewServer(func() ConnHandler { return &testHandler{} })
	if err := srv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr())
	defer c.Close()
	ctx := context.Background()
	req := &testReq{Op: "echo", Payload: "quote-sized payload for the round-trip benchmark", N: 7}
	resp := new(testResp)
	if err := c.Call(ctx, req, resp); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Call(ctx, req, resp); err != nil {
			b.Fatal(err)
		}
	}
}
