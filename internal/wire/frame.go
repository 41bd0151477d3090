package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
)

// DefaultMaxFrame bounds a single frame's payload. Anything larger (or
// a nonsensical length prefix, e.g. from an HTTP client poking the
// port) is treated as a protocol violation and the connection dropped.
const DefaultMaxFrame = 16 << 20

// A frame is
//
//	length  4 bytes big-endian: the size of everything after it
//	kind    1 byte: the frame kind, with flagTraced set when the
//	        trace/span pair follows the ID
//	id      uvarint request ID
//	trace   8 bytes big-endian  \ only when flagTraced is set, so
//	span    8 bytes big-endian  / untraced traffic pays nothing for them
//	body    the rest of the frame
//
// A body that implements Body encodes itself, against the connection's
// name table for its direction: a name (a field or table name) travels
// as a literal the first time it crosses the connection and as an index
// after that (see Names). Frames are encoded in the order they reach
// the wire, under the connection's write mutex, and decoded in the
// order they arrive, every one of them, so both ends of a direction
// enter the same names under the same indices. Any other value goes
// through a per-connection gob stream (type definitions travel once per
// connection, not once per message); which of the two a frame carries
// is decided by the static type both peers pass, never negotiated.

// flagTraced marks a header that carries the trace/span pair.
const flagTraced uint8 = 0x80

func appendHeader(dst []byte, h *frameHeader) []byte {
	kind := h.Kind
	if h.Trace != 0 || h.Span != 0 {
		kind |= flagTraced
	}
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, h.ID)
	if kind&flagTraced != 0 {
		dst = binary.BigEndian.AppendUint64(dst, h.Trace)
		dst = binary.BigEndian.AppendUint64(dst, h.Span)
	}
	return dst
}

// frameWriter frames messages onto a connection. Not safe for
// concurrent use; callers hold a write mutex.
type frameWriter struct {
	w     io.Writer
	buf   []byte // the frame under construction, reused
	names Names  // this direction's name table, send half
	// gob fallback for bodies that do not implement Body; nil until the
	// first such body.
	enc    *gob.Encoder
	gobBuf bytes.Buffer
}

func newFrameWriter(w io.Writer) *frameWriter { return &frameWriter{w: w} }

// writeFrame encodes header+body as one frame and hands it to the
// connection in a single Write. It returns how many of the frame's
// bytes the connection accepted: the whole frame (prefix included) on
// success, and on a failed write the part that still reached the
// socket, so callers can account partially-sent traffic — under fault
// injection those bytes are real load on the shared path, and dropping
// them from Stats.BytesSent skews the Figure-8 comparison.
func (fw *frameWriter) writeFrame(h *frameHeader, body any) (int, error) {
	buf, err := fw.frame(h, body)
	if err != nil {
		return 0, err
	}
	return fw.w.Write(buf)
}

// frame encodes header+body as one frame, length prefix included, into
// the writer's reused buffer, valid until the next frame.
func (fw *frameWriter) frame(h *frameHeader, body any) ([]byte, error) {
	buf := appendHeader(append(fw.buf[:0], 0, 0, 0, 0), h)
	if b, ok := body.(Body); ok {
		buf = b.AppendWire(buf, &fw.names)
	} else {
		if fw.enc == nil {
			fw.enc = gob.NewEncoder(&fw.gobBuf)
		}
		fw.gobBuf.Reset()
		if err := fw.enc.Encode(body); err != nil {
			return nil, err
		}
		buf = append(buf, fw.gobBuf.Bytes()...)
	}
	fw.buf = buf
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	return buf, nil
}

// frameReader reads frames and decodes their header and body. A read
// that fails is never resumed: the client's reader sets no read
// deadline (a call's deadline is its context's), and the server's one,
// the drain wakeup, ends its reading. The buffer is per-connection and
// grow-only: frames are decoded before the next readFrame, so it can be
// reused instead of allocated per frame. Each read takes as much as the
// buffer holds, and the bytes read past a frame are carried to the
// front for the next one, so a frame already whole in the socket costs
// one read, its length prefix included.
type frameReader struct {
	r        io.Reader
	maxFrame int
	buf      []byte // the current frame, then the bytes read past it
	next     int    // where the current frame ends in buf
	end      int    // where the bytes read end in buf
	payload  []byte // the current frame past its length prefix
	body     []byte // the current frame past its header
	names    Names  // this direction's name table, receive half
	// gob fallback, the read side of frameWriter's; nil until the first
	// body that does not implement Body.
	dec    *gob.Decoder
	gobSrc bytes.Reader
}

// minReadBuf is the buffer a connection's first read gets: room for the
// small frames most messages are, and for a frame or two read ahead.
const minReadBuf = 512

func newFrameReader(r io.Reader, maxFrame int) *frameReader {
	return &frameReader{r: r, maxFrame: maxFrame}
}

// readFrame reads the next frame into the decode buffer and returns
// its size on the wire.
func (fr *frameReader) readFrame() (int, error) {
	fr.end = copy(fr.buf, fr.buf[fr.next:fr.end])
	fr.next = 0
	fr.payload, fr.body = nil, nil
	if err := fr.fill(4); err != nil {
		return 0, err
	}
	size := int(binary.BigEndian.Uint32(fr.buf))
	if size <= 0 || size > fr.maxFrame {
		return 0, fmt.Errorf("wire: bad frame length %d", size)
	}
	if err := fr.fill(4 + size); err != nil {
		return 0, err
	}
	fr.next = 4 + size
	fr.payload = fr.buf[4:fr.next]
	return fr.next, nil
}

// fill reads until the buffer holds at least n bytes, growing it to n
// if it is shorter. A read takes as much as the buffer has room for.
func (fr *frameReader) fill(n int) error {
	if fr.end >= n {
		return nil
	}
	if len(fr.buf) < n {
		grown := make([]byte, max(n, minReadBuf))
		copy(grown, fr.buf[:fr.end])
		fr.buf = grown
	}
	m, err := io.ReadAtLeast(fr.r, fr.buf[fr.end:], n-fr.end)
	fr.end += m
	return err
}

// readHeader decodes the current frame's header; what follows it is the
// body.
func (fr *frameReader) readHeader() (frameHeader, error) {
	r := Reader{b: fr.payload}
	kind := r.Byte()
	h := frameHeader{Kind: kind &^ flagTraced, ID: r.Uvarint()}
	if kind&flagTraced != 0 {
		h.Trace = r.Uint64()
		h.Span = r.Uint64()
	}
	if r.err != nil {
		return frameHeader{}, fmt.Errorf("wire: bad frame header: %w", r.err)
	}
	fr.body = fr.payload[r.off:]
	return h, nil
}

// decodeBody decodes the current frame's body into v. Every body must
// be decoded, even when nobody wants it: a self-encoding body may carry
// a name's first crossing, and a gob stream's type definitions arrive
// inside whichever message first used them.
func (fr *frameReader) decodeBody(v any) error {
	if b, ok := v.(Body); ok {
		return b.ReadWire(fr.body, &fr.names)
	}
	if fr.dec == nil {
		// bytes.Reader is an io.ByteReader, so gob reads straight from
		// it and never past the frame.
		fr.dec = gob.NewDecoder(&fr.gobSrc)
	}
	fr.gobSrc.Reset(fr.body)
	return fr.dec.Decode(v)
}
