package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// named is a body that is one name, as a table or field name travels.
type named struct{ Name string }

func (n *named) AppendWire(dst []byte, t *Names) []byte { return AppendName(dst, t, n.Name) }

func (n *named) ReadWire(data []byte, t *Names) error {
	rd := NewReader(data, t)
	n.Name = rd.Name()
	return rd.Err()
}

// namedHandler answers every request with the name it carried.
type namedHandler struct{}

func (namedHandler) NewRequest() any { return new(named) }

func (namedHandler) Handle(_ context.Context, _ *Session, _ uint64, req any) any {
	return &named{Name: req.(*named).Name}
}

func (namedHandler) Close() {}

// TestNamesStopGrowingAtTheirBound: the sender and the receiver of a
// direction apply one entry rule, so they hold the same entries under
// the same indices however many names cross. A name longer than
// maxNameLen is never entered, one of exactly maxNameLen is, and once
// the table holds maxNames entries every new name stays a literal, at
// both ends alike.
func TestNamesStopGrowingAtTheirBound(t *testing.T) {
	names := []string{strings.Repeat("l", maxNameLen+1), strings.Repeat("m", maxNameLen)}
	for i := 0; i < maxNames+10; i++ {
		names = append(names, fmt.Sprintf("n%d", i))
	}
	// entered reports whether names[i] gets an entry: the long name does
	// not, so names[i] for i ≥ 1 would be entry i-1.
	entered := func(i int) bool { return i >= 1 && i-1 < maxNames }

	enc, dec := new(Names), new(Names)
	for pass := 0; pass < 2; pass++ {
		for i, s := range names {
			buf := AppendName(nil, enc, s)
			if indexed, want := buf[0] != 0, pass == 1 && entered(i); indexed != want {
				t.Fatalf("pass %d, name %d (%d bytes): sent as an index %v, want %v", pass, i, len(s), indexed, want)
			}
			r := NewReader(buf, dec)
			if got := r.Name(); got != s || r.Err() != nil {
				t.Fatalf("pass %d, name %d: read %q (%v), want %q", pass, i, got, r.Err(), s)
			}
		}
		if len(enc.sent) != maxNames || len(dec.got) != maxNames {
			t.Fatalf("pass %d: sender holds %d names, receiver %d, want %d each", pass, len(enc.sent), len(dec.got), maxNames)
		}
	}
	for i, s := range dec.got {
		if enc.sent[s] != uint64(i) || s != names[i+1] {
			t.Fatalf("entry %d is %q at the receiver, %q at index %d at the sender", i, s, names[i+1], enc.sent[s])
		}
	}
}

// TestNameIndexPastTableFailsTheFrame: a name index that the receiver's
// table does not hold is malformed input. A server drops the connection
// that sent it and keeps serving others; a client fails the call it
// answers and tears the connection down.
func TestNameIndexPastTableFailsTheFrame(t *testing.T) {
	t.Run("server", func(t *testing.T) {
		srv := NewServer(func() ConnHandler { return namedHandler{} })
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		// A request frame whose body is index 0 of an empty table.
		if _, err := raw.Write([]byte{3, kindRequest, 1, 1}); err != nil {
			t.Fatal(err)
		}
		_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := raw.Read(make([]byte, 64)); err != io.EOF {
			t.Fatalf("server answered a bad index with %d bytes (%v), want the connection closed", n, err)
		}

		c := NewClient(srv.Addr())
		defer c.Close()
		for i := 0; i < 2; i++ {
			resp := new(named)
			if err := c.Call(context.Background(), &named{Name: "quote"}, resp); err != nil || resp.Name != "quote" {
				t.Fatalf("call %d after the bad frame: %+v, %v", i, resp, err)
			}
		}
	})
	t.Run("client", func(t *testing.T) {
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
			// A reply whose body is index 0 of an empty table.
			_, _ = conn.Write([]byte{3, kindResponse, byte(h.ID), 1})
			time.Sleep(2 * time.Second)
		}()

		c := NewClient(ln.Addr().String())
		defer c.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := c.Call(ctx, &named{Name: "quote"}, new(named)); err == nil || errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call answered with a bad index returned %v, want a decode failure", err)
		}
		for deadline := time.Now().Add(time.Second); c.NumConns() != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("connection still open after a reply with a bad index")
			}
		}
	})
}

// TestAbandonedReplyKeepsNamesInStep: the late reply to an abandoned
// call is the first frame to carry a name, so the server's table
// enters it and the next reply sends it as an index. The client's
// reader must decode the abandoned reply all the same, or its table
// falls out of step and the next reply, which the caller waits for,
// fails to decode.
func TestAbandonedReplyKeepsNamesInStep(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	received, release := make(chan struct{}), make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fr, fw := newFrameReader(conn, DefaultMaxFrame), newFrameWriter(conn)
		for i := 0; ; i++ {
			if _, err := fr.readFrame(); err != nil {
				return
			}
			h, err := fr.readHeader()
			if err != nil || fr.decodeBody(new(named)) != nil {
				return
			}
			if i == 0 {
				// Hold the first reply until its caller has gone.
				close(received)
				<-release
			}
			if _, err := fw.writeFrame(&frameHeader{ID: h.ID, Kind: kindResponse}, &named{Name: "quote"}); err != nil {
				return
			}
		}
	}()

	c := NewClient(ln.Addr().String())
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-received
		cancel()
	}()
	abandoned := new(named)
	if err := c.Call(ctx, &named{Name: "ask"}, abandoned); !errors.Is(err, context.Canceled) {
		t.Fatalf("first call returned %v, want it abandoned", err)
	}
	close(release)

	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	resp := new(named)
	if err := c.Call(ctx2, &named{Name: "ask"}, resp); err != nil {
		t.Fatalf("the reply after an abandoned one: %v", err)
	}
	if resp.Name != "quote" || abandoned.Name != "" {
		t.Fatalf("reply %+v, abandoned caller's %+v; want quote and nothing", resp, abandoned)
	}
	if d := c.Stats().Dials; d != 1 {
		t.Fatalf("dials = %d, want 1", d)
	}
}

// TestUint64NameCrossesOnce: an identifier sent as a name (an edge's
// origin) is ten bytes the first time it crosses a direction, a 0
// marker, a length byte and its eight big-endian bytes, and its one-byte
// index after that; once in the table it encodes and decodes without
// allocating. A name of any other length fails the read.
func TestUint64NameCrossesOnce(t *testing.T) {
	const origin = 1<<62 | 5
	enc, dec := new(Names), new(Names)
	buf := make([]byte, 0, 16)
	for i, want := range []int{10, 1} {
		data := AppendUint64Name(buf[:0], enc, origin)
		if len(data) != want {
			t.Errorf("crossing %d: %d bytes, want %d", i+1, len(data), want)
		}
		r := NewReader(data, dec)
		if got := r.Uint64Name(); r.Err() != nil || got != origin {
			t.Errorf("crossing %d: read %#x (%v), want %#x", i+1, got, r.Err(), uint64(origin))
		}
	}
	warm := AppendUint64Name(nil, enc, origin)
	if n := testing.AllocsPerRun(100, func() { buf = AppendUint64Name(buf[:0], enc, origin) }); n != 0 {
		t.Errorf("encoding a known origin allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { NewReader(warm, dec).Uint64Name() }); n != 0 {
		t.Errorf("decoding a known origin allocates %v times", n)
	}
	for _, name := range []string{"", "short", "nine byte"} {
		r := NewReader(AppendName(nil, nil, name), nil)
		if r.Uint64Name(); r.Err() == nil {
			t.Errorf("a %d-byte name read as an eight-byte one", len(name))
		}
	}
}
