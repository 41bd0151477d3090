package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	"sync"
	"sync/atomic"

	"edgeejb/internal/obs"
)

// Client is a multiplexing transport client. Every Call shares one
// connection, distinguished by per-request IDs, so N concurrent calls
// cost one round-trip wall time instead of N connections or N
// serialized round trips. A server push stream (OpenStream) takes a
// connection of its own.
//
// One rule decides every retry, of a Call and of a stream's opening
// exchange alike (see retrying).
//
// Request IDs count per client, over every connection it owns: the
// n-th request is n whichever connection carries it, so the IDs on the
// wire, and the bytes their uvarints take, depend only on how many
// requests the client sent, never on which connection a concurrent
// call happened to take.
type Client struct {
	addr   string
	retry  RetryPolicy
	stats  *collector
	nextID atomic.Uint64

	mu     sync.Mutex
	shared *conn         // nil until the first Call and after it closes
	dialed chan struct{} // closed when the shared dial in flight lands
	conns  map[*conn]struct{}
	closed bool
}

// Option configures a Client.
type Option func(*Client)

// WithRetry makes Call and OpenStream retry failed exchanges under
// defaultRetryPolicy (see retrying). The default is no retry: a
// protocol must opt in, and must only do so when its requests are
// idempotent or duplicate-rejected (see RetryPolicy).
func WithRetry() Option { return func(c *Client) { c.retry = defaultRetryPolicy() } }

// NewClient returns a client for addr. Connections are dialed lazily.
func NewClient(addr string, opts ...Option) *Client {
	c := &Client{
		addr:  addr,
		stats: newCollector(),
		conns: make(map[*conn]struct{}),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Stats returns a snapshot of this client's transport counters.
func (c *Client) Stats() Stats { return c.stats.snapshot() }

// NumConns reports the connections currently owned by the client: the
// shared one and each open push stream. Leak tests use it to assert
// that a cancelled subscription gives its connection up.
func (c *Client) NumConns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.conns)
}

// Close tears down every connection, push streams included.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := make([]*conn, 0, len(c.conns))
	for cn := range c.conns {
		conns = append(conns, cn)
	}
	c.shared = nil
	c.mu.Unlock()
	for _, cn := range conns {
		cn.teardown(ErrClosed)
	}
	return nil
}

// retrying runs try, one attempt of the exchange labelled label, under
// the client's one retry rule. try reports whether its connection sat
// idle in the client before the attempt: the shared connection after an
// earlier reply (a stream always dials). Such a connection may have died
// unseen, as when the server restarted under it, so the first failure
// on one is retried at once and costs no budget. Every other failure
// spends one attempt of the WithRetry budget, after its backoff. A
// closed client and a done context (cancelled or past its deadline) are
// never retried, and without WithRetry nothing is.
func (c *Client) retrying(ctx context.Context, label string, try func() (idle bool, err error)) error {
	budget := c.retry.attempts()
	spent, free := 0, budget > 1
	for {
		idle, err := try()
		if err == nil || errors.Is(err, ErrClosed) || ctx.Err() != nil {
			return err
		}
		switch {
		case idle && free:
			free = false
		case spent+1 < budget && c.retry.Backoff.Sleep(spent, ctx.Done()):
			spent++
		default:
			return err
		}
		c.stats.retry(label)
	}
}

// Call performs one request/response exchange on the shared
// connection, decoding the reply into resp (which must be a pointer),
// under the client's retry rule.
func (c *Client) Call(ctx context.Context, req, resp any) error {
	return c.retrying(ctx, labelOf(req), func() (bool, error) {
		cn, err := c.sharedConn(ctx)
		if err != nil {
			return false, err
		}
		idle := cn.isUsed()
		return idle, cn.roundTrip(ctx, req, resp)
	})
}

// sharedConn returns the shared connection. With none, or with one that
// has closed, even if not yet pruned, it dials a replacement; callers
// that arrive while that dial is in flight wait for it instead of
// dialing their own.
func (c *Client) sharedConn(ctx context.Context) (*conn, error) {
	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		if cn := c.shared; cn != nil && cn.live() {
			c.mu.Unlock()
			return cn, nil
		}
		dialed := c.dialed
		if dialed == nil {
			break
		}
		c.mu.Unlock()
		select {
		case <-dialed:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		c.mu.Lock()
	}
	dialed := make(chan struct{})
	c.dialed = dialed
	c.mu.Unlock()
	cn, err := c.dialConn(ctx)
	c.mu.Lock()
	c.dialed = nil
	if err == nil {
		c.shared = cn
	}
	c.mu.Unlock()
	close(dialed)
	return cn, err
}

func (c *Client) dialConn(ctx context.Context) (*conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	c.stats.dial()
	cn := &conn{
		c:       c,
		nc:      nc,
		fw:      newFrameWriter(nc),
		fr:      newFrameReader(nc, DefaultMaxFrame),
		pending: make(map[uint64]*call),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		nc.Close()
		return nil, ErrClosed
	}
	c.conns[cn] = struct{}{}
	c.mu.Unlock()
	go cn.readLoop()
	return cn, nil
}

func (c *Client) removeConn(cn *conn) {
	c.mu.Lock()
	delete(c.conns, cn)
	if c.shared == cn {
		c.shared = nil
	}
	c.mu.Unlock()
}

// OpenStream dials a connection of the stream's own and runs the
// stream's opening exchange req/resp on it under the client's retry
// rule. prepare, when non-nil, runs on each stream before req is sent:
// a subscriber registers its push sink there, ahead of the request that
// switches the server into push mode. The stream owns its connection
// until Hangup.
func (c *Client) OpenStream(ctx context.Context, req, resp any, prepare func(*Stream)) (*Stream, error) {
	var st *Stream
	err := c.retrying(ctx, labelOf(req), func() (bool, error) {
		cn, err := c.dialConn(ctx)
		if err != nil {
			return false, err
		}
		st = &Stream{cn: cn}
		if prepare != nil {
			prepare(st)
		}
		if err = cn.roundTrip(ctx, req, resp); err != nil {
			st.Hangup()
		}
		return false, err
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// call tracks one in-flight request on a connection. Exactly one side
// decides its outcome, by setting claimed under cn.mu: the reader taking
// its reply (or teardown failing it), which then completes it, or its
// caller abandoning it when the context is done first. An abandoned call
// stays registered, so its late reply is recognised and dropped instead
// of failing the connection as a response to an unknown request.
type call struct {
	id      uint64
	label   string
	resp    any
	done    chan struct{} // closed by the claiming reader or teardown
	err     error         // set before done closes
	claimed bool
}

// claim marks the call decided and reports whether it already was; the
// caller holds cn.mu.
func (cl *call) claim() (already bool) {
	already, cl.claimed = cl.claimed, true
	return already
}

// complete finishes a call its reader or teardown claimed.
func (cl *call) complete(err error) {
	cl.err = err
	close(cl.done)
}

type pushSink struct {
	label   string
	factory func() any
	deliver func(any)
	onClose func()

	// mu orders deliver against onClose: the reader may hold a push in
	// hand while another goroutine tears the connection down, and a
	// sink that closes a channel in onClose must not be sent to after.
	mu     sync.Mutex
	closed bool
}

// push hands one decoded body to the sink unless it has closed.
func (s *pushSink) push(body any) {
	s.mu.Lock()
	if !s.closed {
		s.deliver(body)
	}
	s.mu.Unlock()
}

// close fires onClose once every deliver in flight has returned.
func (s *pushSink) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	if s.onClose != nil {
		s.onClose()
	}
}

type conn struct {
	c  *Client
	nc net.Conn

	wmu sync.Mutex
	fw  *frameWriter

	fr *frameReader // reader-goroutine only

	mu      sync.Mutex
	pending map[uint64]*call
	sink    *pushSink
	closed  bool
	err     error
	used    bool
}

// live reports whether the connection is still open.
func (cn *conn) live() bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return !cn.closed
}

func (cn *conn) isUsed() bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.used
}

// teardown closes the connection, fails every pending call, and fires
// the push sink's close hook. Idempotent.
func (cn *conn) teardown(err error) {
	cn.mu.Lock()
	if cn.closed {
		cn.mu.Unlock()
		return
	}
	cn.closed = true
	cn.err = err
	calls := make([]*call, 0, len(cn.pending))
	for _, cl := range cn.pending {
		calls = append(calls, cl)
	}
	cn.pending = make(map[uint64]*call)
	sink := cn.sink
	cn.sink = nil
	for _, cl := range calls {
		if !cl.claim() {
			cl.complete(err)
		}
	}
	cn.mu.Unlock()
	_ = cn.nc.Close()
	if sink != nil {
		sink.close()
	}
	cn.c.removeConn(cn)
}

// roundTrip performs one exchange on this connection. The context is
// the only owner of its deadline: the wait for the reply selects on
// ctx.Done(), and the write, which that select cannot reach, runs under
// SetWriteDeadline at the same instant. A caller whose context is done
// first abandons the call, leaving the pending entry for the reader to
// drop the late reply; one whose reply the reader already claimed waits
// for that reply instead.
func (cn *conn) roundTrip(ctx context.Context, req, resp any) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	label := labelOf(req)
	cl := &call{
		label: label,
		resp:  resp,
		done:  make(chan struct{}),
	}

	cn.mu.Lock()
	if cn.closed {
		err := cn.err
		cn.mu.Unlock()
		cn.c.stats.failure(label)
		return fmt.Errorf("wire: %s on closed conn: %w", label, err)
	}
	cl.id = cn.c.nextID.Add(1)
	cn.pending[cl.id] = cl
	cn.mu.Unlock()

	deadline, _ := ctx.Deadline()
	cn.wmu.Lock()
	_ = cn.nc.SetWriteDeadline(deadline)
	h := frameHeader{
		ID:    cl.id,
		Kind:  kindRequest,
		Trace: obs.TraceID(ctx),
		Span:  obs.SpanID(ctx),
	}
	n, werr := cn.fw.writeFrame(&h, req)
	cn.wmu.Unlock()
	if werr != nil {
		if n > 0 {
			// Part of the frame reached the socket before the failure;
			// those bytes are real traffic on the path and must count.
			cn.c.stats.sent(label, n)
		}
		cn.c.stats.failure(label)
		cn.teardown(fmt.Errorf("wire: send %s: %w", label, werr))
		if errors.Is(werr, os.ErrDeadlineExceeded) {
			// The write deadline is the context's, whose own timer
			// fires at the same instant.
			<-ctx.Done()
			return ctx.Err()
		}
		return fmt.Errorf("wire: send %s: %w", label, werr)
	}
	cn.c.stats.sent(label, n)
	if h.traced() {
		cn.c.stats.traced(label)
	}

	select {
	case <-cl.done:
	case <-ctx.Done():
		cn.mu.Lock()
		claimed := cl.claim()
		cn.mu.Unlock()
		if !claimed {
			cn.c.stats.failure(label)
			return ctx.Err()
		}
		<-cl.done
	}
	if cl.err != nil {
		cn.c.stats.failure(label)
		return fmt.Errorf("wire: %s: %w", label, cl.err)
	}
	cn.c.stats.roundTrip(label)
	return nil
}

func (cn *conn) readLoop() {
	for {
		size, err := cn.fr.readFrame()
		if err != nil {
			cn.teardown(fmt.Errorf("wire: recv: %w", err))
			return
		}
		h, err := cn.fr.readHeader()
		if err != nil {
			cn.teardown(fmt.Errorf("wire: recv: %w", err))
			return
		}
		switch h.Kind {
		case kindResponse:
			if !cn.handleResponse(h.ID, size) {
				return
			}
		case kindPush:
			if !cn.handlePush(size) {
				return
			}
		default:
			cn.teardown(fmt.Errorf("wire: recv unknown frame kind %d", h.Kind))
			return
		}
	}
}

// handleResponse takes reply id out of pending and claims its call. The
// reply to a call its caller abandoned is decoded, then dropped.
func (cn *conn) handleResponse(id uint64, size int) bool {
	cn.mu.Lock()
	cl, ok := cn.pending[id]
	var abandoned bool
	if ok {
		delete(cn.pending, id)
		abandoned = cl.claim()
	}
	cn.mu.Unlock()
	if !ok {
		cn.teardown(fmt.Errorf("wire: recv response for unknown request %d", id))
		return false
	}
	cn.c.stats.received(cl.label, size)
	// An abandoned call's caller is gone, and may be reusing resp, so
	// its reply is decoded into a throwaway value of the same type: a
	// self-encoding body may carry a name's first crossing, and a gob
	// body the stream's type definitions.
	target := cl.resp
	if abandoned {
		target = reflect.New(reflect.TypeOf(cl.resp).Elem()).Interface()
	}
	if err := cn.fr.decodeBody(target); err != nil {
		// cl is no longer pending, so teardown will not fail it.
		err = fmt.Errorf("wire: recv %s: %w", cl.label, err)
		if !abandoned {
			cl.complete(err)
		}
		cn.teardown(err)
		return false
	}
	cn.mu.Lock()
	cn.used = true
	cn.mu.Unlock()
	if !abandoned {
		cl.complete(nil)
	}
	return true
}

func (cn *conn) handlePush(size int) bool {
	cn.mu.Lock()
	sink := cn.sink
	cn.mu.Unlock()
	if sink == nil {
		cn.teardown(fmt.Errorf("wire: recv push on connection without sink"))
		return false
	}
	cn.c.stats.push(sink.label, size)
	body := sink.factory()
	if err := cn.fr.decodeBody(body); err != nil {
		cn.teardown(fmt.Errorf("wire: recv push: %w", err))
		return false
	}
	sink.push(body)
	return true
}

// Stream is a connection of its own that carries server pushes: an
// invalidation subscription's. After its opening exchange it sends
// nothing; it ends when the server hangs up or the caller does.
type Stream struct {
	cn *conn
}

// OnPush registers the stream's push sink: factory allocates a body,
// deliver consumes each push (it must not block), and onClose fires
// exactly once when the connection dies, after the last deliver has
// returned. Register the sink BEFORE the call that switches the server
// into push mode (OpenStream's prepare hook), or an early push races
// the registration and kills the connection.
func (s *Stream) OnPush(factory func() any, deliver func(any), onClose func()) {
	cn := s.cn
	cn.mu.Lock()
	closed := cn.closed
	if !closed {
		cn.sink = &pushSink{label: "push", factory: factory, deliver: deliver, onClose: onClose}
	}
	cn.mu.Unlock()
	if closed && onClose != nil {
		onClose()
	}
}

// Hangup closes the stream's connection: the cancel path of a
// subscription. Idempotent.
func (s *Stream) Hangup() { s.cn.teardown(ErrClosed) }
