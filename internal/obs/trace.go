package obs

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Trace IDs are minted once per client interaction at the edge of the
// system and ride along the context; the wire transport copies them
// into an optional frame-header field so they cross process boundaries.
// Span IDs are process-local.
type (
	traceKey struct{}
	spanKey  struct{}
	opKey    struct{}
)

// WithOp returns ctx labeled with the logical operation being served
// (a trade action name like "buy"). Forensic events attribute
// themselves to the operation, so conflict matrices can break aborts
// down by interaction type. An empty op returns ctx unchanged.
func WithOp(ctx context.Context, op string) context.Context {
	if op == "" {
		return ctx
	}
	return context.WithValue(ctx, opKey{}, op)
}

// Op extracts the context's operation label ("" if none).
func Op(ctx context.Context) string {
	op, _ := ctx.Value(opKey{}).(string)
	return op
}

// traceIDs and spanIDs are seeded at init with the wall clock so IDs
// from separately started processes (the daemons of a distributed
// deployment) do not collide in a merged span log. Span IDs must be
// distinct across processes too: trace assembly joins spans from every
// tier by (trace, span, parent), and a collision would graft one
// process's subtree onto another's.
var traceIDs, spanIDs atomic.Uint64

func init() { seedIDs(uint64(time.Now().UnixNano())) }

// seedIDs seeds both counters from the clock reading now. A trace ID
// travels as a uvarint (a notice's origin trace, a conflict's winner),
// so its width must not follow the clock: bit 63 is cleared and bit 62
// set, and every trace ID is 9 bytes on the wire at any hour.
func seedIDs(now uint64) {
	traceIDs.Store(now<<16&^(1<<63) | 1<<62)
	spanIDs.Store(now)
}

// processTier names the tier of spans whose name prefix is not in the
// built-in table (see TierOf). Daemons set it once at startup.
var processTier atomic.Pointer[string]

// SetTier names this process's tier ("edge", "backend", "db", "proxy")
// for spans whose name prefix TierOf does not recognize. The built-in
// prefix table takes precedence, so in-process harness runs — where
// every tier shares one process — still label each span by the package
// that recorded it.
func SetTier(tier string) { processTier.Store(&tier) }

// tierByPrefix maps a span name's prefix (the segment before the first
// dot) to the tier that code runs in. slicache runs inside the edge
// application server; sqlstore and lockmgr run inside the database
// server.
var tierByPrefix = map[string]string{
	"client":   "client",
	"edge":     "edge",
	"slicache": "edge",
	"shard":    "edge",
	"backend":  "backend",
	"sqlstore": "db",
	"lockmgr":  "db",
}

// TierOf resolves the tier label recorded on spans named name: the
// built-in prefix table first, then the process tier set by SetTier,
// then "proc".
func TierOf(name string) string {
	prefix := name
	if i := strings.IndexByte(name, '.'); i >= 0 {
		prefix = name[:i]
	}
	if t, ok := tierByPrefix[prefix]; ok {
		return t
	}
	if p := processTier.Load(); p != nil && *p != "" {
		return *p
	}
	return "proc"
}

// NewTraceID mints a fresh nonzero trace ID.
func NewTraceID() uint64 {
	for {
		if id := traceIDs.Add(1); id != 0 {
			return id
		}
	}
}

// WithTrace returns ctx carrying the given trace ID. A zero ID returns
// ctx unchanged (zero means "no trace").
func WithTrace(ctx context.Context, id uint64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, id)
}

// WithNewTrace plants a fresh trace ID in ctx and returns both.
func WithNewTrace(ctx context.Context) (context.Context, uint64) {
	id := NewTraceID()
	return context.WithValue(ctx, traceKey{}, id), id
}

// TraceID extracts the context's trace ID (zero if none).
func TraceID(ctx context.Context) uint64 {
	id, _ := ctx.Value(traceKey{}).(uint64)
	return id
}

// SpanID extracts the context's current span ID (zero if none). The
// wire transport copies it into the frame header so a server-side span
// parents under the client-side span that made the call.
func SpanID(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// WithRemoteParent returns ctx carrying a trace and parent span that
// arrived from another process (the wire server plants the frame
// header's IDs with it). A zero trace returns ctx unchanged; a zero
// parent plants only the trace, so the first server-side span becomes a
// local root within the trace.
func WithRemoteParent(ctx context.Context, trace, parent uint64) context.Context {
	if trace == 0 {
		return ctx
	}
	ctx = context.WithValue(ctx, traceKey{}, trace)
	if parent != 0 {
		ctx = context.WithValue(ctx, spanKey{}, parent)
	}
	return ctx
}

// Span is one timed hop of a traced interaction. A nil *Span (returned
// by StartSpan on an untraced context) is valid and End on it is a
// no-op, so call sites need no conditionals.
type Span struct {
	rec SpanRecord
}

// StartSpan opens a span named name under the context's current span
// and returns the child context callers should pass downward. On a
// context without a trace it returns ctx unchanged and a nil span —
// untraced hot paths pay only the context lookup.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	trace := TraceID(ctx)
	if trace == 0 {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(uint64)
	s := &Span{rec: SpanRecord{
		Trace:  trace,
		Span:   spanIDs.Add(1),
		Parent: parent,
		Name:   name,
		Tier:   TierOf(name),
		Start:  time.Now(),
	}}
	return context.WithValue(ctx, spanKey{}, s.rec.Span), s
}

// End closes the span: its duration feeds the "span.<name>" histogram
// in the Default registry and its record lands in DefaultSpans.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.Dur = time.Since(s.rec.Start)
	Default.Histogram("span." + s.rec.Name).Observe(s.rec.Dur)
	DefaultSpans.add(s.rec)
}

// SpanRecord is one finished span. Parent is the span this one ran
// under — a span ID from the same process, or, for the first span a
// request opens on the far side of a wire hop, the calling process's
// span ID carried in the frame header. Tier labels where the span ran
// (see TierOf), so trace assembly can lay one interaction out across
// client, edge, backend, and db lanes.
type SpanRecord struct {
	Trace  uint64        `json:"trace"`
	Span   uint64        `json:"span"`
	Parent uint64        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Tier   string        `json:"tier,omitempty"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
}

// SpanLog is a bounded ring of recently finished spans — enough to
// reconstruct recent interactions without unbounded memory. It allocates
// its capacity (4096 records for NewSpanLog(0)) at the first span.
// Once the ring wraps, each new span silently evicts the oldest; the
// eviction is counted so trace assembly can report incomplete traces
// instead of pretending completeness.
type SpanLog struct {
	mu   sync.Mutex
	ring ring[SpanRecord]
}

// DefaultSpans is the process-wide span log; Span.End records into it
// and the /debug/spans endpoint serves it.
var DefaultSpans = NewSpanLog(4096)

// NewSpanLog returns an empty ring that keeps the last n spans (4096 if
// n <= 0).
func NewSpanLog(n int) *SpanLog {
	return &SpanLog{ring: newRing[SpanRecord](n)}
}

func (l *SpanLog) add(rec SpanRecord) {
	l.mu.Lock()
	l.ring.add(rec)
	l.mu.Unlock()
}

// Dropped returns how many spans this log has evicted unread — nonzero
// means traces assembled from the log may be missing hops.
func (l *SpanLog) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.dropped
}

// snapshot copies the ring oldest-first.
func (l *SpanLog) snapshot() []SpanRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.snapshot()
}

// Recent returns the last n finished spans, oldest first; Recent(0) is
// the whole log.
func (l *SpanLog) Recent(n int) []SpanRecord {
	all := l.snapshot()
	if n > 0 && len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}
