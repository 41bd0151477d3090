package latency

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// startEcho runs a TCP echo server and returns its address.
func startEcho(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				_, _ = io.Copy(c, c)
			}()
		}
	}()
	return ln.Addr().String()
}

func startFaultProxy(t *testing.T, target string, plan *FaultPlan) *Proxy {
	t.Helper()
	p := NewProxy(target, 0)
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.SetFaults(plan)
	return p
}

// echoOnce writes payload through the proxy and reads it back.
func echoOnce(conn net.Conn, payload []byte) error {
	if _, err := conn.Write(payload); err != nil {
		return err
	}
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(conn, got); err != nil {
		return err
	}
	if !bytes.Equal(got, payload) {
		return io.ErrUnexpectedEOF
	}
	return nil
}

// TestFaultConnReset: a doomed connection must fail with a transport
// error once its byte budget runs out, and the proxy must account the
// reset.
func TestFaultConnReset(t *testing.T) {
	p := startFaultProxy(t, startEcho(t), &FaultPlan{
		Seed:          1,
		ResetRate:     1.0,
		ResetAfterMax: 256,
	})
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	payload := bytes.Repeat([]byte("x"), 128)
	var echoErr error
	for i := 0; i < 64; i++ {
		if echoErr = echoOnce(conn, payload); echoErr != nil {
			break
		}
	}
	if echoErr == nil {
		t.Fatal("doomed connection survived 8KB of echo traffic")
	}
	if st := p.FaultStats(); st.ConnResets == 0 {
		t.Fatalf("no reset accounted: %+v", st)
	}
}

// TestFaultTruncation: with certain truncation, the first multi-byte
// chunk must arrive short and the connection then reset.
func TestFaultTruncation(t *testing.T) {
	p := startFaultProxy(t, startEcho(t), &FaultPlan{
		Seed:         2,
		TruncateRate: 1.0,
	})
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	payload := bytes.Repeat([]byte("y"), 4096)
	if _, err := conn.Write(payload); err == nil {
		// The write may succeed locally; the read must then observe a
		// short, reset stream.
		got, rerr := io.ReadAll(conn)
		if rerr == nil && len(got) >= len(payload) {
			t.Fatal("payload fully delivered despite certain truncation")
		}
	}
	if st := p.FaultStats(); st.Truncations == 0 || st.ConnResets == 0 {
		t.Fatalf("truncation not accounted: %+v", p.FaultStats())
	}
}

// TestFaultStall: certain stalls must delay delivery by at least the
// stall duration.
func TestFaultStall(t *testing.T) {
	const stall = 60 * time.Millisecond
	p := startFaultProxy(t, startEcho(t), &FaultPlan{
		Seed:      3,
		StallRate: 1.0,
		StallFor:  stall,
	})
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if err := echoOnce(conn, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	// Request and reply each cross the proxy once: two stalls minimum.
	if elapsed := time.Since(start); elapsed < 2*stall {
		t.Fatalf("echo took %v, want >= %v", elapsed, 2*stall)
	}
	if st := p.FaultStats(); st.Stalls < 2 {
		t.Fatalf("stalls not accounted: %+v", st)
	}
}

// TestFaultDisable: SetFaults(nil) must return the proxy to a clean
// path.
func TestFaultDisable(t *testing.T) {
	p := startFaultProxy(t, startEcho(t), &FaultPlan{Seed: 5, ResetRate: 1, ResetAfterMax: 1})
	p.SetFaults(nil)
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < 16; i++ {
		if err := echoOnce(conn, bytes.Repeat([]byte("z"), 512)); err != nil {
			t.Fatalf("clean echo %d: %v", i, err)
		}
	}
	if st := p.FaultStats(); st != (FaultStats{}) {
		t.Fatalf("faults injected while disabled: %+v", st)
	}
}

// TestFaultCloseDuringStall: closing the proxy while a chunk is held in
// a stall must not hang.
func TestFaultCloseDuringStall(t *testing.T) {
	p := startFaultProxy(t, startEcho(t), &FaultPlan{
		Seed:      6,
		StallRate: 1.0,
		StallFor:  30 * time.Second,
	})
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("stuck")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the chunk enter the stall
	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("proxy Close hung during injected stall")
	}
}
