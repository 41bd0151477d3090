package appserver

import (
	"encoding/binary"
	"fmt"

	"edgeejb/internal/wire"
)

// Request is one client interaction: a trade action plus parameters.
type Request struct {
	// SessionID is the client's HTTP-session equivalent.
	SessionID string
	// Action is the trade action name (trade.Action.String()).
	Action string
	// Params carries the action's form fields.
	Params map[string]string
}

// WireLabel names the request's action for per-op transport stats.
func (r *Request) WireLabel() string { return r.Action }

// AppendWire implements wire.Body: session, action, then the parameter
// count and its key/value pairs. The protocol sends no names, so it
// ignores the table.
func (r *Request) AppendWire(dst []byte, _ *wire.Names) []byte {
	dst = wire.AppendString(dst, r.SessionID)
	dst = wire.AppendString(dst, r.Action)
	dst = binary.AppendUvarint(dst, uint64(len(r.Params)))
	for k, v := range r.Params {
		dst = wire.AppendString(dst, k)
		dst = wire.AppendString(dst, v)
	}
	return dst
}

// ReadWire implements wire.Body. An empty parameter list reads as a nil
// map.
func (r *Request) ReadWire(data []byte, _ *wire.Names) error {
	rd := wire.NewReader(data, nil)
	r.SessionID = rd.Str()
	r.Action = rd.Str()
	if n := rd.Len(); n > 0 {
		r.Params = make(map[string]string, n)
		for i := 0; i < n && !rd.Failed(); i++ {
			k := rd.Str()
			r.Params[k] = rd.Str()
		}
	}
	return rd.Err()
}

// Response is the rendered result of one interaction.
type Response struct {
	// OK is false when the action failed; Err carries the message.
	OK  bool
	Err string
	// Body is the rendered HTML page.
	Body []byte
}

// AppendWire implements wire.Body: outcome, message, page.
func (r *Response) AppendWire(dst []byte, _ *wire.Names) []byte {
	dst = wire.AppendBool(dst, r.OK)
	dst = wire.AppendString(dst, r.Err)
	return wire.AppendBytes(dst, r.Body)
}

// ReadWire implements wire.Body. The page is copied out of the
// connection's read buffer.
func (r *Response) ReadWire(data []byte, _ *wire.Names) error {
	rd := wire.NewReader(data, nil)
	r.OK = rd.Bool()
	r.Err = rd.Str()
	r.Body = rd.Bytes()
	return rd.Err()
}

// Error materializes a failed response as an error.
func (r *Response) Error() error {
	if r.OK {
		return nil
	}
	return fmt.Errorf("appserver: %s", r.Err)
}

// reply is a handler's answer: the outcome and, on success, the page's
// title and per-action fragment. The page itself is laid out only when
// the reply is encoded, straight into the connection's frame buffer, so
// the server never holds a whole page.
type reply struct {
	ok    bool
	err   string
	title string
	frag  string
}

// page is a successful reply.
func page(title, frag string) *reply { return &reply{ok: true, title: title, frag: frag} }

// A reply only travels from server to client, which reads it as a
// Response, so it is only an encoder. One that lost its encoder would
// fall silently into the transport's gob fallback.
var _ wire.Encoder = (*reply)(nil)

// AppendWire implements wire.Encoder with exactly the bytes of the
// Response carrying the same outcome and page: OK, Err, then the page
// as a uvarint length and its bytes (none for a failure).
func (r *reply) AppendWire(dst []byte, _ *wire.Names) []byte {
	dst = wire.AppendBool(dst, r.ok)
	dst = wire.AppendString(dst, r.err)
	if !r.ok {
		return binary.AppendUvarint(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(pageLen(r.title, r.frag)))
	return appendPage(dst, r.title, r.frag)
}
