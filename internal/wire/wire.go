package wire

import "errors"

// Labeler lets request bodies name themselves for per-op stats. Bodies
// that do not implement it are accounted under "call".
type Labeler interface {
	WireLabel() string
}

// ErrClosed is returned by operations on a closed Client or Server.
var ErrClosed = errors.New("wire: closed")

// Frame kinds. A request expects exactly one response with the same ID;
// push frames are unsolicited server-to-client messages tagged with the
// ID of the request that opened the push stream.
const (
	kindRequest  uint8 = 1
	kindResponse uint8 = 2
	kindPush     uint8 = 3
)

// frameHeader precedes every body on the wire, inside the same frame.
// Trace carries the request context's obs trace ID across the process
// boundary, and Span the caller's current span ID, so the first span
// the server opens for this request parents under the client-side span
// that made the call — a trace assembles as one tree, not a bag of
// per-process fragments. The pair is on the wire only when one of them
// is non-zero (see frame.go), so untraced traffic pays no bytes for it.
type frameHeader struct {
	ID    uint64
	Kind  uint8
	Trace uint64
	Span  uint64
}

// labelOf resolves the stats label for a message body.
func labelOf(body any) string {
	if l, ok := body.(Labeler); ok {
		if s := l.WireLabel(); s != "" {
			return s
		}
	}
	return "call"
}
