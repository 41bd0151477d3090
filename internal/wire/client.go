package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"edgeejb/internal/obs"
)

// Client is a multiplexing transport client. One-shot Calls share a
// small set of connections, distinguished by per-request IDs, so N
// concurrent calls cost one round-trip wall time instead of N
// connections or N serialized round trips. Protocols whose server-side
// state is per-connection open a pinned Stream instead.
//
// Request IDs count per client, over every connection it owns: the
// n-th request is n whichever connection carries it, so the IDs on the
// wire, and the bytes their uvarints take, depend only on how many
// requests the client sent, never on which connection a concurrent
// call happened to take.
type Client struct {
	addr          string
	maxShared     int
	maxPinnedIdle int
	retry         RetryPolicy
	stats         *collector
	nextID        atomic.Uint64

	mu         sync.Mutex
	dialCond   *sync.Cond // signaled when a shared dial finishes
	shared     []*conn
	idlePinned []*conn
	conns      map[*conn]struct{}
	dialing    int
	closed     bool
}

// Option configures a Client.
type Option func(*Client)

// WithMaxConns caps the number of shared multiplexed connections
// (default 2). Pinned streams are not subject to the cap.
func WithMaxConns(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.maxShared = n
		}
	}
}

// WithRetry makes Call retry failed exchanges on fresh connections
// under DefaultRetryPolicy, sleeping the policy's jittered backoff
// between attempts. The default is no retry: a protocol must opt in,
// and must only do so when its requests are idempotent or
// duplicate-rejected (see RetryPolicy). Context cancellation and
// deadline expiry are never retried.
func WithRetry() Option { return func(c *Client) { c.retry = DefaultRetryPolicy() } }

// NewClient returns a client for addr. Connections are dialed lazily.
func NewClient(addr string, opts ...Option) *Client {
	c := &Client{
		addr:          addr,
		maxShared:     2,
		maxPinnedIdle: 4,
		stats:         newCollector(),
		conns:         make(map[*conn]struct{}),
	}
	for _, o := range opts {
		o(c)
	}
	c.dialCond = sync.NewCond(&c.mu)
	return c
}

// Stats returns a snapshot of this client's transport counters.
func (c *Client) Stats() Stats { return c.stats.snapshot() }

// RetryPolicy returns the client's retry schedule, so protocol layers
// driving their own loops (pinned-stream opens, subscriptions) share
// one budget with the transport's one-shot calls.
func (c *Client) RetryPolicy() RetryPolicy { return c.retry }

// RecordRetry accounts one retry attempt against label in Stats.
// Protocol layers that drive their own retry loops (the stream
// handshakes the transport cannot retry for them) use it so
// Stats.Retries reflects the whole retry budget spent on a path.
func (c *Client) RecordRetry(label string) { c.stats.retry(label) }

// NumConns reports the connections currently owned by the client —
// shared, idle-pinned, and checked-out streams. Leak tests use it to
// assert that abort paths release their pinned connections.
func (c *Client) NumConns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.conns)
}

// Close tears down every connection, including pinned streams.
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
	c.shared, c.idlePinned = nil, nil
	c.dialCond.Broadcast()
	c.mu.Unlock()
	for _, cn := range conns {
		cn.teardown(ErrClosed)
	}
	return nil
}

// Call performs one request/response exchange on a shared connection,
// decoding the reply into resp (which must be a pointer). Under a
// retry policy, failed exchanges (including failed dials) are retried
// on fresh connections with jittered backoff; a first failure on a
// previously-used pooled connection — the stale-pool case after a
// server restart — is retried immediately without consuming backoff.
func (c *Client) Call(ctx context.Context, req, resp any) error {
	budget := c.retry.attempts()
	for attempt := 0; ; attempt++ {
		cn, err := c.sharedConn(ctx, attempt > 0)
		if err == nil {
			wasUsed := cn.isUsed()
			err = cn.roundTrip(ctx, req, resp)
			if err == nil {
				return nil
			}
			if attempt == 0 && wasUsed && budget > 1 && ctx.Err() == nil {
				c.stats.retry(labelOf(req))
				continue
			}
		}
		if errors.Is(err, ErrClosed) || ctx.Err() != nil || attempt+1 >= budget {
			return err
		}
		if !c.retry.Backoff.Sleep(attempt, ctx.Done()) {
			return err
		}
		c.stats.retry(labelOf(req))
	}
}

// sharedConn picks the least-loaded shared connection, dialing a new
// one only when every existing connection is busy and the cap allows —
// serial callers therefore reuse a single connection. forceFresh
// (retry after a stale-connection failure) always dials, even past the
// cap; broken connections prune themselves, so the overshoot is
// transient.
func (c *Client) sharedConn(ctx context.Context, forceFresh bool) (*conn, error) {
	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		if forceFresh {
			break
		}
		var best *conn
		bestLoad := -1
		for _, cn := range c.shared {
			l := cn.load()
			if l < 0 {
				continue // closed, about to be pruned
			}
			if bestLoad < 0 || l < bestLoad {
				best, bestLoad = cn, l
			}
		}
		atCap := len(c.shared)+c.dialing >= c.maxShared
		if best != nil && (bestLoad == 0 || atCap) {
			c.mu.Unlock()
			return best, nil
		}
		if !atCap {
			break
		}
		// Every slot is taken by an in-flight dial; wait for one to
		// land rather than overshooting the cap.
		c.dialCond.Wait()
	}
	c.dialing++
	c.mu.Unlock()
	cn, err := c.dialConn(ctx)
	c.mu.Lock()
	c.dialing--
	if err != nil {
		c.dialCond.Broadcast()
		c.mu.Unlock()
		return nil, err
	}
	if c.closed {
		c.dialCond.Broadcast()
		c.mu.Unlock()
		cn.teardown(ErrClosed)
		return nil, ErrClosed
	}
	c.shared = append(c.shared, cn)
	c.dialCond.Broadcast()
	c.mu.Unlock()
	return cn, nil
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
	for i, s := range c.shared {
		if s == cn {
			c.shared = append(c.shared[:i], c.shared[i+1:]...)
			break
		}
	}
	for i, s := range c.idlePinned {
		if s == cn {
			c.idlePinned = append(c.idlePinned[:i], c.idlePinned[i+1:]...)
			break
		}
	}
	// A caller that found only this connection, closed but not yet
	// pruned, in a full shared set is waiting for the slot.
	c.dialCond.Broadcast()
	c.mu.Unlock()
}

// OpenStream checks a pinned connection out of the idle pool, dialing
// a fresh one if the pool is empty. The stream owns the connection
// exclusively until Close (return to pool) or Hangup (discard).
func (c *Client) OpenStream(ctx context.Context) (*Stream, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	var cn *conn
	if n := len(c.idlePinned); n > 0 {
		cn = c.idlePinned[n-1]
		c.idlePinned = c.idlePinned[:n-1]
	}
	c.mu.Unlock()
	if cn != nil {
		return &Stream{c: c, cn: cn, reused: true}, nil
	}
	cn, err := c.dialConn(ctx)
	if err != nil {
		return nil, err
	}
	return &Stream{c: c, cn: cn}, nil
}

// call tracks one in-flight request on a connection. Abandoned calls
// (context expired before the reply) stay registered so the late reply
// is recognised and dropped instead of failing the connection as a
// response to an unknown request.
type call struct {
	id        uint64
	label     string
	resp      any
	deadline  time.Time
	done      chan struct{}
	err       error
	completed bool
	abandoned bool
}

// complete finishes the call; the caller holds cn.mu.
func (cl *call) complete(err error) {
	if cl.completed {
		return
	}
	cl.completed = true
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

// load reports in-flight calls, or -1 if the connection is closed.
func (cn *conn) load() int {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.closed {
		return -1
	}
	return len(cn.pending)
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
		cl.complete(err)
	}
	cn.mu.Unlock()
	_ = cn.nc.Close()
	if sink != nil {
		sink.close()
	}
	cn.c.removeConn(cn)
}

// roundTrip performs one exchange on this connection. The write runs
// under the context deadline; the wait is cut short by cancellation,
// leaving the pending entry behind (abandoned) for the reader.
func (cn *conn) roundTrip(ctx context.Context, req, resp any) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	label := labelOf(req)
	deadline, _ := ctx.Deadline()
	cl := &call{
		label: label,
		resp:  resp,
		done:  make(chan struct{}),
	}
	cl.deadline = deadline

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
	// Nudge the reader: if it is blocked with a longer (or no) read
	// deadline, this shortens it to cover the new call.
	cn.updateReadDeadline()

	cn.wmu.Lock()
	_ = cn.nc.SetWriteDeadline(deadline)
	n, werr := cn.fw.writeFrame(&frameHeader{
		ID:    cl.id,
		Kind:  kindRequest,
		Trace: obs.TraceID(ctx),
		Span:  obs.SpanID(ctx),
	}, req)
	cn.wmu.Unlock()
	if werr != nil {
		if n > 0 {
			// Part of the frame reached the socket before the failure;
			// those bytes are real traffic on the path and must count.
			cn.c.stats.sent(label, n)
		}
		cn.c.stats.failure(label)
		cn.teardown(fmt.Errorf("wire: send %s: %w", label, werr))
		if isTimeout(werr) && ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("wire: send %s: %w", label, werr)
	}
	cn.c.stats.sent(label, n)

	select {
	case <-cl.done:
		if cl.err != nil {
			cn.c.stats.failure(label)
			return fmt.Errorf("wire: %s: %w", label, cl.err)
		}
		cn.c.stats.roundTrip(label)
		return nil
	case <-ctx.Done():
		cn.mu.Lock()
		if cl.completed {
			done := cl.err
			cn.mu.Unlock()
			if done != nil {
				cn.c.stats.failure(label)
				return fmt.Errorf("wire: %s: %w", label, done)
			}
			cn.c.stats.roundTrip(label)
			return nil
		}
		cl.completed = true
		cl.abandoned = true
		cl.err = ctx.Err()
		close(cl.done)
		cn.mu.Unlock()
		cn.updateReadDeadline()
		cn.c.stats.failure(label)
		return ctx.Err()
	}
}

// updateReadDeadline sets the connection read deadline to the earliest
// deadline among pending, un-abandoned calls (zero clears it).
func (cn *conn) updateReadDeadline() {
	cn.mu.Lock()
	var min time.Time
	for _, cl := range cn.pending {
		if cl.completed || cl.deadline.IsZero() {
			continue
		}
		if min.IsZero() || cl.deadline.Before(min) {
			min = cl.deadline
		}
	}
	closed := cn.closed
	cn.mu.Unlock()
	if closed {
		return
	}
	_ = cn.nc.SetReadDeadline(min)
}

// expireOverdue fails pending calls whose deadline has passed, leaving
// them registered (abandoned) for their late replies. It runs on the
// reader goroutine when the read deadline fires.
func (cn *conn) expireOverdue() {
	now := time.Now()
	cn.mu.Lock()
	for _, cl := range cn.pending {
		if cl.completed || cl.deadline.IsZero() || now.Before(cl.deadline) {
			continue
		}
		cl.completed = true
		cl.abandoned = true
		cl.err = context.DeadlineExceeded
		close(cl.done)
	}
	cn.mu.Unlock()
}

func (cn *conn) readLoop() {
	onTimeout := func() bool {
		cn.expireOverdue()
		cn.updateReadDeadline()
		return true
	}
	for {
		size, err := cn.fr.readFrame(onTimeout)
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
		cn.updateReadDeadline()
	}
}

func (cn *conn) handleResponse(id uint64, size int) bool {
	cn.mu.Lock()
	cl, ok := cn.pending[id]
	if ok {
		delete(cn.pending, id)
	}
	cn.mu.Unlock()
	if !ok {
		cn.teardown(fmt.Errorf("wire: recv response for unknown request %d", id))
		return false
	}
	cn.c.stats.received(cl.label, size)
	// An abandoned call's caller is gone, and may be reusing resp. A
	// self-encoding body is simply dropped; a gob body is decoded into
	// a throwaway value of the right type, because the gob stream's
	// type definitions may be riding in it.
	target := cl.resp
	if cl.abandoned {
		target = nil
		if _, ok := cl.resp.(Body); !ok {
			target = reflect.New(reflect.TypeOf(cl.resp).Elem()).Interface()
		}
	}
	if target != nil {
		if err := cn.fr.decodeBody(target); err != nil {
			// cl is no longer pending, so teardown will not fail it.
			err = fmt.Errorf("wire: recv %s: %w", cl.label, err)
			cn.mu.Lock()
			cl.complete(err)
			cn.mu.Unlock()
			cn.teardown(err)
			return false
		}
	}
	cn.mu.Lock()
	cn.used = true
	cl.complete(nil)
	cn.mu.Unlock()
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
	cn.c.stats.push(sink.label, size, false)
	body := sink.factory()
	if err := cn.fr.decodeBody(body); err != nil {
		cn.teardown(fmt.Errorf("wire: recv push: %w", err))
		return false
	}
	sink.push(body)
	return true
}

// Stream is a connection pinned to one caller — the transport for
// transactions (server-side state is per-connection) and invalidation
// subscriptions (the connection carries server pushes).
type Stream struct {
	c      *Client
	cn     *conn
	reused bool

	mu     sync.Mutex
	closed bool
	pushed bool
}

// Reused reports whether the stream came from the idle pool rather
// than a fresh dial — the caller's cue to retry once if the first call
// fails (the pooled connection may be stale).
func (s *Stream) Reused() bool { return s.reused }

// Call performs one exchange on the pinned connection.
func (s *Stream) Call(ctx context.Context, req, resp any) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return s.cn.roundTrip(ctx, req, resp)
}

// OnPush registers the stream's push sink: factory allocates a body,
// deliver consumes each push (it must not block), and onClose fires
// exactly once when the connection dies, after the last deliver has
// returned. Register the sink BEFORE the
// call that switches the server into push mode, or an early push races
// the registration and kills the connection.
func (s *Stream) OnPush(factory func() any, deliver func(any), onClose func()) {
	s.mu.Lock()
	s.pushed = true
	s.mu.Unlock()
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

// Close returns a healthy, push-free connection to the idle pool for
// the next OpenStream; otherwise the connection is discarded.
func (s *Stream) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	pushed := s.pushed
	s.mu.Unlock()
	cn := s.cn
	if pushed || cn.load() < 0 {
		cn.teardown(ErrClosed)
		return
	}
	c := s.c
	c.mu.Lock()
	if !c.closed && len(c.idlePinned) < c.maxPinnedIdle {
		c.idlePinned = append(c.idlePinned, cn)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	cn.teardown(ErrClosed)
}

// Hangup discards the pinned connection immediately — the cancel path
// for subscriptions and broken transactions.
func (s *Stream) Hangup() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cn.teardown(ErrClosed)
}
