package latency

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// echoServer accepts connections and echoes fixed-size responses.
func echoServer(t *testing.T, respSize int) (addr string, closeFn func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				buf := make([]byte, 64<<10)
				resp := bytes.Repeat([]byte{'r'}, respSize)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
					if _, err := c.Write(resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), func() {
		_ = ln.Close()
		wg.Wait()
	}
}

func roundTrip(t *testing.T, conn net.Conn, respSize int) time.Duration {
	t.Helper()
	begin := time.Now()
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, make([]byte, respSize)); err != nil {
		t.Fatal(err)
	}
	return time.Since(begin)
}

func TestProxyForwardsTransparently(t *testing.T) {
	addr, closeSrv := echoServer(t, 128)
	defer closeSrv()
	p := NewProxy(addr, 0)
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 5; i++ {
		roundTrip(t, conn, 128)
	}
	if got := p.Counter().ToTarget(); got != 5*4 {
		t.Errorf("bytes to target = %d, want 20", got)
	}
	if got := p.Counter().FromTarget(); got != 5*128 {
		t.Errorf("bytes from target = %d, want 640", got)
	}
	if got := p.Counter().Total(); got != 5*(4+128) {
		t.Errorf("bytes total = %d, want 660", got)
	}
	if p.Counter().Conns() != 1 {
		t.Errorf("conns = %d, want 1", p.Counter().Conns())
	}
}

func TestProxyInjectsDelay(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	addr, closeSrv := echoServer(t, 64)
	defer closeSrv()
	p := NewProxy(addr, 0)
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 20; i++ {
		roundTrip(t, conn, 64) // warm up
	}

	base := measureMean(t, conn, 30, 64)
	p.SetDelay(2 * time.Millisecond)
	delayed := measureMean(t, conn, 30, 64)

	// Round trip = 2 crossings; expect close to base + 4ms.
	extra := delayed - base
	if extra < 3600*time.Microsecond || extra > 5500*time.Microsecond {
		t.Errorf("2ms one-way delay added %v per round trip, want ~4ms", extra)
	}
}

// TestProxyPipelinesLargeMessages checks that a message spanning many
// TCP segments pays the one-way delay once, not once per segment.
func TestProxyPipelinesLargeMessages(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const size = 256 << 10 // definitely multiple segments
	addr, closeSrv := echoServer(t, size)
	defer closeSrv()
	p := NewProxy(addr, 0)
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 3; i++ {
		roundTrip(t, conn, size)
	}
	base := measureMean(t, conn, 10, size)
	p.SetDelay(2 * time.Millisecond)
	delayed := measureMean(t, conn, 10, size)
	extra := delayed - base
	// Serial per-chunk delays would be tens of milliseconds here.
	if extra > 8*time.Millisecond {
		t.Errorf("large response paid %v extra; per-segment delays are not pipelined", extra)
	}
}

func measureMean(t *testing.T, conn net.Conn, n, respSize int) time.Duration {
	t.Helper()
	var total time.Duration
	for i := 0; i < n; i++ {
		total += roundTrip(t, conn, respSize)
	}
	return total / time.Duration(n)
}

func TestSetDelayAppliesToLiveConnections(t *testing.T) {
	addr, closeSrv := echoServer(t, 64)
	defer closeSrv()
	p := NewProxy(addr, 0)
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Delay() != 0 {
		t.Error("initial delay not zero")
	}
	p.SetDelay(3 * time.Millisecond)
	if p.Delay() != 3*time.Millisecond {
		t.Error("SetDelay not visible")
	}
}

func TestProxyCloseUnblocksClients(t *testing.T) {
	addr, closeSrv := echoServer(t, 64)
	defer closeSrv()
	p := NewProxy(addr, 0)
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	roundTrip(t, conn, 64)

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = conn.Read(make([]byte, 1))
	}()
	p.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("client read not unblocked by proxy close")
	}
	p.Close() // idempotent
}

func TestProxyTargetUnreachable(t *testing.T) {
	p := NewProxy("127.0.0.1:1", 0) // nothing listens on port 1
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The proxy should just close the connection.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("expected closed connection")
	}
}
