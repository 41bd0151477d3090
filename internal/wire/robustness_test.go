package wire

import (
	"context"
	"encoding/binary"
	"net"
	"testing"
	"time"
)

// TestServerSurvivesGarbageFrames mirrors dbwire's robustness test at
// the transport layer: arbitrary bytes on a raw connection must drop
// only that connection, never the server or its other clients.
func TestServerSurvivesGarbageFrames(t *testing.T) {
	srv := startTestServer(t)
	c := NewClient(srv.Addr())
	defer c.Close()
	ctx := context.Background()

	// Each frame opens with its length as a uvarint (see frame.go).
	payloads := [][]byte{
		// An HTTP poke: 'G' reads as a 71-byte frame, and the 71 bytes
		// after it open with 'E', a frame kind no peer sends.
		[]byte("GET / HTTP/1.1\r\nHost: 127.0.0.1\r\nUser-Agent: curl/8.0\r\nAccept: */*\r\nConnection: close\r\n\r\n"),
		make([]byte, 4096), // zero-length frame
		{0x05, 1, 2, 3, 4}, // truncated payload
		{0x85},             // truncated length prefix
		binary.AppendUvarint(nil, DefaultMaxFrame+1), // > maxFrame
		{0xff, 0xff, 0xff, 0xff, 0x01},               // a prefix longer than maxFrame needs
		{0x04, 0, 0, 0, 0},                           // framed payload of no known kind
		{0x01, 0x42},                                 // 1-byte junk frame
	}
	for _, payload := range payloads {
		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		_, _ = raw.Write(payload)
		_ = raw.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 64)
		_, _ = raw.Read(buf)
		_ = raw.Close()
	}

	resp := new(testResp)
	if err := c.Call(ctx, &testReq{Op: "echo", Payload: "alive"}, resp); err != nil {
		t.Fatalf("server died after garbage: %v", err)
	}
	if resp.Payload != "alive" {
		t.Fatalf("got %+v", resp)
	}
}

// TestClientRejectsOversizeFrame: a frame length beyond the limit is a
// protocol violation on the client side too.
func TestClientRejectsOversizeFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Claim a frame one byte past the cap is coming.
		_, _ = conn.Write(binary.AppendUvarint(nil, DefaultMaxFrame+1))
		time.Sleep(2 * time.Second)
	}()

	c := NewClient(ln.Addr().String())
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := c.Call(ctx, &testReq{Op: "echo"}, new(testResp)); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

// TestUndecodableReplyFailsItsCall: a reply whose body does not decode
// must fail the call it answers, not leave it waiting on a connection
// that has already been torn down.
func TestUndecodableReplyFailsItsCall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fr := newFrameReader(conn, DefaultMaxFrame)
		if _, err := fr.readFrame(); err != nil {
			return
		}
		h, err := fr.readHeader()
		if err != nil {
			return
		}
		// A response header followed by a string length with no string.
		_, _ = conn.Write([]byte{3, kindResponse, byte(h.ID), 0x7f})
		time.Sleep(2 * time.Second)
	}()

	c := NewClient(ln.Addr().String())
	defer c.Close()
	done := make(chan error, 1)
	go func() { done <- c.Call(context.Background(), &testReq{Op: "echo"}, new(testResp)) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("malformed reply decoded")
		}
	case <-time.After(time.Second):
		t.Fatal("call still waiting after its reply failed to decode")
	}
}

// TestFrameHeaderRoundTrip pins the header layout: kind byte, uvarint
// ID, and the trace/span pair only when one of them is set.
func TestFrameHeaderRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		h    frameHeader
		size int
	}{
		{frameHeader{ID: 1, Kind: kindRequest}, 2},
		{frameHeader{ID: 127, Kind: kindResponse}, 2},
		{frameHeader{ID: 128, Kind: kindPush}, 3},
		{frameHeader{ID: 1<<64 - 1, Kind: kindRequest}, 11},
		{frameHeader{ID: 9, Kind: kindRequest, Trace: 7, Span: 1<<64 - 1}, 18},
		{frameHeader{ID: 9, Kind: kindRequest, Span: 3}, 18},
	} {
		var sink captureWriter
		if _, err := newFrameWriter(&sink).writeFrame(&tc.h, &testReq{}); err != nil {
			t.Fatal(err)
		}
		fr := newFrameReader(&byteConn{data: sink}, DefaultMaxFrame)
		if _, err := fr.readFrame(); err != nil {
			t.Fatal(err)
		}
		got, err := fr.readHeader()
		if err != nil {
			t.Fatalf("%+v: %v", tc.h, err)
		}
		if got != tc.h {
			t.Errorf("header %+v came back as %+v", tc.h, got)
		}
		if n := len(fr.payload) - len(fr.body); n != tc.size {
			t.Errorf("header %+v took %d bytes, want %d", tc.h, n, tc.size)
		}
	}
}

// FuzzFrameReader feeds arbitrary bytes to the framer, the header
// decoder and both body paths (a self-encoding body and the gob
// fallback), and to a body that is one name, read frame after frame
// against the reader's name table; it must only ever return an error,
// never panic, over-read or allocate beyond the frame limit.
func FuzzFrameReader(f *testing.F) {
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))
	f.Add(make([]byte, 64))
	f.Add([]byte{0x05, 1, 2, 3, 4, 5})
	f.Add([]byte{0x01, 0x42, 0x01, 0x42})
	f.Add([]byte{0x02, 0x81, 0x01}) // traced flag, pair missing
	// Length prefixes: a truncated one, one longer than the 1 KiB cap
	// below needs (2 bytes), one past the cap, a non-minimal one and a
	// frame too long for a one-byte prefix.
	f.Add([]byte{0x85})
	f.Add([]byte{0x81, 0x80, 0x00, 0x42})
	f.Add(binary.AppendUvarint(nil, 1<<10+1))
	f.Add([]byte{0x82, 0x00, 0x01, 0x01})
	f.Add(append(binary.AppendUvarint(nil, 200), make([]byte, 200)...))
	// Genuine frames captured from the writer, for coverage of the
	// decode paths under mutation.
	for _, body := range []any{&testReq{Op: "echo", Payload: "x", N: -3}, &plainReq{Payload: "x"}, &named{Name: "quote"}} {
		var sink captureWriter
		fw := newFrameWriter(&sink)
		_, _ = fw.writeFrame(&frameHeader{ID: 1, Kind: kindRequest}, body)
		_, _ = fw.writeFrame(&frameHeader{ID: 300, Kind: kindRequest, Trace: 5, Span: 6}, body)
		f.Add([]byte(sink))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, newBody := range []func() any{
			func() any { return new(testReq) },
			func() any { return new(plainReq) },
			func() any { return new(named) },
		} {
			// 1 KiB is far above any seed and keeps a mutated length
			// prefix from passing as a 16 MiB allocation.
			fr := newFrameReader(&byteConn{data: data}, 1<<10)
			for {
				if _, err := fr.readFrame(); err != nil {
					break
				}
				if _, err := fr.readHeader(); err != nil {
					break
				}
				if err := fr.decodeBody(newBody()); err != nil {
					break
				}
			}
		}
	})
}

type captureWriter []byte

func (w *captureWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

// byteConn serves a fixed byte slice then EOF, like a peer that wrote
// data and closed.
type byteConn struct {
	data []byte
	off  int
}

func (b *byteConn) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, net.ErrClosed
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}
