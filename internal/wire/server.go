package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"edgeejb/internal/obs"
)

// ConnHandler holds the per-connection state of one protocol — for the
// database protocol that is the connection's open transactions and
// subscription pushers. The Server creates one handler per accepted
// connection.
type ConnHandler interface {
	// NewRequest allocates a fresh request body to decode into
	// (decoders leave absent fields untouched, and a connection's
	// requests run concurrently, so bodies must never be reused).
	NewRequest() any
	// Handle processes one request and returns the response body (nil
	// suppresses the response). Handle runs on the goroutine that read
	// the request, which has already passed the connection's reading on
	// to another: a connection's requests execute concurrently, and one
	// that blocks does not stop the next being read, so per-connection
	// state must be synchronized by the handler.
	Handle(ctx context.Context, sess *Session, id uint64, req any) any
	// Close releases per-connection state after the last in-flight
	// Handle has returned (or been force-cancelled).
	Close()
}

// Session is a handler's interface to its connection.
type Session struct {
	sc *serverConn
}

// Push writes an unsolicited frame to the client, tagged with the ID
// of the request that opened the push stream. Safe for concurrent use.
func (s *Session) Push(id uint64, body any) error {
	sc := s.sc
	sc.wmu.Lock()
	_, err := sc.fw.writeFrame(&frameHeader{ID: id, Kind: kindPush}, body)
	sc.wmu.Unlock()
	if err != nil {
		return fmt.Errorf("wire: push: %w", err)
	}
	return nil
}

// Hangup severs the connection. Push-mode handlers use it when the
// upstream source feeding their pushes dies: silently stopping would
// leave the client listening on a healthy-looking stream that will
// never deliver again, whereas a hangup makes the client's teardown
// and resubscribe machinery run. Safe for concurrent use; the holder of
// the connection's reading role observes the closed socket and performs
// the full teardown.
func (s *Session) Hangup() { _ = s.sc.nc.Close() }

// drainTimeout bounds how long Close waits for in-flight requests
// before force-closing connections.
const drainTimeout = 5 * time.Second

// Server accepts framed connections and dispatches their requests to
// per-connection handlers. Close drains gracefully: stop accepting,
// let in-flight requests finish (bounded by the drain timeout), then
// force-close whatever remains.
type Server struct {
	newHandler func() ConnHandler
	baseCtx    context.Context
	cancel     context.CancelFunc

	// draining is set by Close before it wakes any connection, so no
	// connection, woken yet or not, takes another request: one left
	// serving would let a client's redial land on a server going away.
	draining atomic.Bool

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*serverConn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns a server that creates one handler per connection.
func NewServer(newHandler func() ConnHandler) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		newHandler: newHandler,
		baseCtx:    ctx,
		cancel:     cancel,
		conns:      make(map[*serverConn]struct{}),
	}
	return s
}

// Start begins listening on addr (e.g. "127.0.0.1:0").
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	s.ln = ln
	s.wg.Add(1)
	s.mu.Unlock()
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound listen address; Start must have succeeded.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		panic("wire: Addr before Start")
	}
	return s.ln.Addr().String()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		ctx, cancel := context.WithCancel(s.baseCtx)
		sc := &serverConn{
			srv:    s,
			nc:     nc,
			h:      s.newHandler(),
			fw:     newFrameWriter(nc),
			fr:     newFrameReader(nc, DefaultMaxFrame),
			ctx:    ctx,
			cancel: cancel,
			role:   make(chan struct{}),
		}
		s.conns[sc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go sc.serve()
	}
}

func (s *Server) removeConn(sc *serverConn) {
	s.mu.Lock()
	delete(s.conns, sc)
	s.mu.Unlock()
}

// Close drains the server: stop accepting, wake the reading of every
// connection, wait for in-flight requests up to the drain timeout, then
// force-close stragglers and cancel their session contexts.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	s.draining.Store(true)
	for _, sc := range conns {
		_ = sc.nc.SetReadDeadline(time.Now())
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drainTimeout):
		// Force phase: cancel every session context (unblocking
		// handlers parked in lock or channel waits) and sever the
		// sockets, then wait for the goroutines to unwind.
		s.cancel()
		s.mu.Lock()
		for sc := range s.conns {
			_ = sc.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.cancel()
}

type serverConn struct {
	srv    *Server
	nc     net.Conn
	h      ConnHandler
	ctx    context.Context
	cancel context.CancelFunc

	wmu sync.Mutex
	fw  *frameWriter

	fr *frameReader // the reading role's: only its holder touches it

	handlers sync.WaitGroup

	// role passes the reading role to a goroutine of this connection
	// parked after its request; see serve.
	role chan struct{}
}

// request is one decoded request on its way to its handler.
type request struct {
	ctx  context.Context
	id   uint64
	body any
}

// errDrained ends a connection's reading when the server drains.
var errDrained = errors.New("wire: server draining")

// serve holds the connection's reading role; the goroutine started for
// an accepted connection is its first holder. The holder reads and
// decodes the next request, passes the role on (to a goroutine parked
// after its own request, or to a new one when none is), runs the
// request itself, and once its response is written parks until the
// role comes back. So decoding stays in arrival order, one goroutine at
// a time, while handlers run concurrently and a blocked one never stops
// the reading; and a request runs on the goroutine that read it, with
// no hand-off between the read and the handler. Parked goroutines keep
// their grown stacks for the next request, and leave when the
// connection's context is cancelled at teardown. The holder that sees
// reading end tears the connection down.
func (sc *serverConn) serve() {
	for {
		req, err := sc.readRequest()
		if err != nil {
			sc.teardown(err == errDrained)
			return
		}
		select {
		case sc.role <- struct{}{}:
		default:
			go sc.serve()
		}
		sc.dispatch(req)
		select {
		case <-sc.role:
		case <-sc.ctx.Done():
			return
		}
	}
}

// teardown closes the connection once its reading has ended: a drain
// lets in-flight handlers finish and flush their responses before the
// socket goes away, a broken connection unblocks them first.
func (sc *serverConn) teardown(graceful bool) {
	defer sc.srv.wg.Done()
	if graceful {
		sc.handlers.Wait()
		sc.cancel()
	} else {
		sc.cancel()
		sc.handlers.Wait()
	}
	_ = sc.nc.Close()
	sc.h.Close()
	sc.srv.removeConn(sc)
}

// readRequest reads and decodes the connection's next request and
// counts it in flight. Any error ends the reading; errDrained means the
// server is draining.
func (sc *serverConn) readRequest() (request, error) {
	_, err := sc.fr.readFrame()
	if err != nil {
		// The only deadline ever set on a server connection is the
		// drain wakeup.
		if errors.Is(err, os.ErrDeadlineExceeded) && sc.srv.draining.Load() {
			return request{}, errDrained
		}
		return request{}, err
	}
	if sc.srv.draining.Load() {
		return request{}, errDrained
	}
	h, err := sc.fr.readHeader()
	if err != nil {
		return request{}, err
	}
	if h.Kind != kindRequest {
		return request{}, fmt.Errorf("wire: request of frame kind %d", h.Kind)
	}
	body := sc.h.NewRequest()
	if err := sc.fr.decodeBody(body); err != nil {
		return request{}, err
	}
	sc.handlers.Add(1)
	// Requests arriving with a trace ID continue that trace on this
	// side of the process boundary, parented under the caller's span
	// (obs.WithRemoteParent is a no-op on a zero trace).
	return request{ctx: obs.WithRemoteParent(sc.ctx, h.Trace, h.Span), id: h.ID, body: body}, nil
}

func (sc *serverConn) dispatch(r request) {
	defer sc.handlers.Done()
	resp := sc.h.Handle(r.ctx, &Session{sc: sc}, r.id, r.body)
	if resp == nil {
		return
	}
	sc.wmu.Lock()
	_, err := sc.fw.writeFrame(&frameHeader{ID: r.id, Kind: kindResponse}, resp)
	sc.wmu.Unlock()
	if err != nil {
		// A failed response write means the stream is broken for every
		// other in-flight response too.
		if !errors.Is(err, net.ErrClosed) {
			_ = sc.nc.Close()
		}
	}
}
