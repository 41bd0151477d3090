package latency

import (
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Counter accumulates byte counts for one path, split by direction. It
// is safe for concurrent use and may be shared by many connections.
type Counter struct {
	toTarget   atomic.Uint64
	fromTarget atomic.Uint64
	conns      atomic.Uint64
}

// AddToTarget records n bytes flowing toward the target (requests).
func (c *Counter) AddToTarget(n int) { c.toTarget.Add(uint64(n)) }

// AddFromTarget records n bytes flowing back from the target (responses).
func (c *Counter) AddFromTarget(n int) { c.fromTarget.Add(uint64(n)) }

// ToTarget returns the bytes sent toward the target so far.
func (c *Counter) ToTarget() uint64 { return c.toTarget.Load() }

// FromTarget returns the bytes received from the target so far.
func (c *Counter) FromTarget() uint64 { return c.fromTarget.Load() }

// Total returns bytes in both directions.
func (c *Counter) Total() uint64 { return c.toTarget.Load() + c.fromTarget.Load() }

// Conns returns the number of connections accounted so far.
func (c *Counter) Conns() uint64 { return c.conns.Load() }

// Proxy is a TCP delay proxy. Every byte forwarded in either direction
// is held for the configured one-way delay before delivery, emulating a
// wide-area path on a loopback interface. The proxy also counts the
// bytes it forwards, which is how the bandwidth experiment (Figure 8)
// measures traffic on the shared path.
type Proxy struct {
	target  string
	delay   atomic.Int64 // one-way delay in nanoseconds
	counter *Counter
	faults  atomic.Pointer[injector]

	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup
}

// NewProxy creates a proxy that will forward connections to target with
// the given one-way delay. Call Start to begin listening.
func NewProxy(target string, oneWayDelay time.Duration) *Proxy {
	p := &Proxy{
		target:  target,
		counter: &Counter{},
		conns:   make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
	}
	p.delay.Store(int64(oneWayDelay))
	return p
}

// Counter returns the proxy's byte counter for the proxied path.
func (p *Proxy) Counter() *Counter { return p.counter }

// SetDelay changes the one-way delay; it applies to bytes forwarded
// after the call, including on established connections. This is how the
// experiment harness sweeps the delay axis without rebuilding topology.
func (p *Proxy) SetDelay(d time.Duration) { p.delay.Store(int64(d)) }

// Delay returns the current one-way delay.
func (p *Proxy) Delay() time.Duration { return time.Duration(p.delay.Load()) }

// SetFaults switches the proxy into (or out of) fault-injection mode.
// A nil or inactive plan disables injection; a live plan applies to
// connections and chunks forwarded after the call. Each SetFaults call
// starts a fresh schedule (new seed state, zeroed FaultStats).
func (p *Proxy) SetFaults(plan *FaultPlan) {
	if plan == nil || !plan.Active() {
		p.faults.Store(nil)
		return
	}
	p.faults.Store(newInjector(*plan))
}

// FaultStats returns the counters of the current fault plan (zero when
// fault injection is off).
func (p *Proxy) FaultStats() FaultStats {
	if f := p.faults.Load(); f != nil {
		return f.stats()
	}
	return FaultStats{}
}

// Start begins listening on addr (use "127.0.0.1:0" for an ephemeral
// port) and serving connections in the background.
func (p *Proxy) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		_ = ln.Close()
		return errors.New("latency: proxy closed")
	}
	p.ln = ln
	p.mu.Unlock()
	p.wg.Add(1)
	go p.acceptLoop(ln)
	return nil
}

// Addr returns the proxy's listen address. It panics if Start has not
// been called.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Close stops the listener and tears down every proxied connection,
// waiting for the forwarding goroutines to exit.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	close(p.done)
	ln := p.ln
	for c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	p.wg.Wait()
}

func (p *Proxy) acceptLoop(ln net.Listener) {
	defer p.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if !p.track(conn) {
			_ = conn.Close()
			return
		}
		p.wg.Add(1)
		go p.serve(conn)
	}
}

func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.conns, c)
}

func (p *Proxy) serve(client net.Conn) {
	defer p.wg.Done()
	defer p.untrack(client)
	defer client.Close()

	target, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	if !p.track(target) {
		_ = target.Close()
		return
	}
	defer p.untrack(target)
	defer target.Close()
	p.counter.conns.Add(1)

	fh := &faultHolder{p: p, client: client, target: target}

	done := make(chan struct{}, 2)
	go func() {
		p.pump(target, client, p.counter.AddToTarget, fh)
		// Half-close toward the target so request streams terminate.
		if tc, ok := target.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	go func() {
		p.pump(client, target, p.counter.AddFromTarget, fh)
		if cc, ok := client.(*net.TCPConn); ok {
			_ = cc.CloseWrite()
		}
		done <- struct{}{}
	}()
	<-done
	<-done
}

// chunk is one delayed segment in flight.
type chunk struct {
	data []byte
	due  time.Time
}

// sleepUntil sleeps to a deadline accurately: timer sleep for the bulk,
// then cooperative yielding for the tail. Plain time.Sleep can overshoot
// by around a millisecond on coarse-timer kernels, which at
// millisecond-scale injected delays badly inflates the measured latency
// sensitivities; the experiments need the injected delay to be accurate,
// so the last stretch busy-yields instead of sleeping. The yield loop
// calls runtime.Gosched, so other goroutines (the servers under test,
// which are idle while a delay elapses anyway) keep running.
func sleepUntil(due time.Time) {
	const spinWindow = 2 * time.Millisecond
	if wait := time.Until(due) - spinWindow; wait > 0 {
		time.Sleep(wait)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// pump forwards src to dst, modeling one-way propagation delay: every
// chunk is delivered delay after it was read, but chunks overlap in
// flight (pipelining), so a large message spanning several TCP segments
// pays the delay once, not once per segment — the behavior of a real
// wide-area path, and of the paper's delay proxy. cf, when non-nil,
// injects the fault plan on the delivery side: stalls hold chunks back,
// truncation delivers a partial chunk, and a
// doomed byte budget resets the connection pair mid-stream. The fault
// state is re-resolved per chunk via fh, so plans installed after the
// connection was accepted still apply to it.
func (p *Proxy) pump(dst io.Writer, src io.Reader, account func(int), fh *faultHolder) {
	inflight := make(chan chunk, 256)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		drain := func() {
			for range inflight {
			}
		}
		for c := range inflight {
			sleepUntil(c.due)
			data := c.data
			kill := false
			cf := fh.current()
			if cf != nil {
				var allowed int
				allowed, kill = cf.admit(len(data), p.done)
				data = data[:allowed]
			}
			if len(data) > 0 {
				// Count the chunk as it is handed to the socket: the peer
				// may read it and act before Write returns, and the
				// counter must never trail what the peer has read.
				account(len(data))
				if _, err := dst.Write(data); err != nil {
					// Drain remaining chunks so the reader never blocks.
					drain()
					return
				}
			}
			if kill {
				cf.abort()
				drain()
				return
			}
		}
	}()
	buf := make([]byte, 32*1024)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			data := make([]byte, n)
			copy(data, buf[:n])
			inflight <- chunk{data: data, due: time.Now().Add(p.Delay())}
		}
		if err != nil {
			close(inflight)
			<-writerDone
			return
		}
	}
}
