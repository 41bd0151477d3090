package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
)

// DefaultMaxFrame bounds a single frame's payload. Anything larger, an
// empty frame, or a length prefix longer than this bound's own uvarint
// is treated as a protocol violation and the connection dropped; bytes
// that are no frame at all (an HTTP client poking the port) fail there
// or, at the latest, on their frame kind.
const DefaultMaxFrame = 16 << 20

// A frame is
//
//	length  uvarint: the size of everything after it, 1 byte for a
//	        frame under 128 bytes, at most 4 under DefaultMaxFrame
//	kind    1 byte: the frame kind, with flagTraced set when the
//	        trace/span pair follows the ID
//	id      uvarint request ID
//	trace   8 bytes big-endian  \ only when flagTraced is set, so
//	span    8 bytes big-endian  / untraced traffic pays nothing for them
//	body    the rest of the frame
//
// The writer builds a frame behind room reserved for the longest
// prefix and writes the length right-aligned into that room, so a frame
// still leaves in one Write whatever its prefix's size. The reader
// refuses a zero length, a length past its cap, a prefix longer than
// the cap's own uvarint and a prefix the connection ends inside.
//
// A body that implements Encoder encodes itself (and one that
// implements Decoder decodes itself), against the connection's
// name table for its direction: a name (a field or table name, an
// edge's origin) travels as a literal the first time it crosses the
// connection and as an index after that (see Names). Frames are encoded
// in the order they reach the wire, under the connection's write mutex,
// and decoded in the order they arrive, every one of them, so both ends
// of a direction enter the same names under the same indices. Any other
// value goes through a per-connection gob stream (type definitions
// travel once per connection, not once per message); which of the two a
// frame carries is decided by the static type both peers pass, never
// negotiated.

// flagTraced marks a header that carries the trace/span pair.
const flagTraced uint8 = 0x80

// tracePairBytes is what the trace/span pair adds to a traced header.
const tracePairBytes = 16

// prefixRoom is the room a frame under construction keeps at its head
// for its length prefix: a uvarint of up to 35 bits, far past any cap.
const prefixRoom = 5

// noPrefix fills the room until the frame's length is known.
var noPrefix [prefixRoom]byte

// traced reports whether h carries the trace/span pair.
func (h *frameHeader) traced() bool { return h.Trace != 0 || h.Span != 0 }

func appendHeader(dst []byte, h *frameHeader) []byte {
	kind := h.Kind
	if h.traced() {
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
	// gob fallback for bodies that do not implement Encoder; nil until the
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
	buf := appendHeader(append(fw.buf[:0], noPrefix[:]...), h)
	if b, ok := body.(Encoder); ok {
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
	size := uint64(len(buf) - prefixRoom)
	if size >= 1<<(7*prefixRoom) {
		return nil, fmt.Errorf("wire: frame of %d bytes", size)
	}
	var prefix [prefixRoom]byte
	n := binary.PutUvarint(prefix[:], size)
	start := prefixRoom - n
	copy(buf[start:], prefix[:n])
	return buf[start:], nil
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
	// maxPrefix is the length of maxFrame as a uvarint: a longer length
	// prefix can only name a frame past the cap.
	maxPrefix int
	buf       []byte // the current frame, then the bytes read past it
	next      int    // where the current frame ends in buf
	end       int    // where the bytes read end in buf
	payload   []byte // the current frame past its length prefix
	body      []byte // the current frame past its header
	names     Names  // this direction's name table, receive half
	// gob fallback, the read side of frameWriter's; nil until the first
	// body that does not implement Decoder.
	dec    *gob.Decoder
	gobSrc bytes.Reader
}

// minReadBuf is the buffer a connection's first read gets: room for the
// small frames most messages are, and for a frame or two read ahead.
const minReadBuf = 512

func newFrameReader(r io.Reader, maxFrame int) *frameReader {
	var prefix [binary.MaxVarintLen64]byte
	return &frameReader{r: r, maxFrame: maxFrame, maxPrefix: binary.PutUvarint(prefix[:], uint64(maxFrame))}
}

// readFrame reads the next frame into the decode buffer and returns
// its size on the wire, its length prefix included.
func (fr *frameReader) readFrame() (int, error) {
	fr.end = copy(fr.buf, fr.buf[fr.next:fr.end])
	fr.next = 0
	fr.payload, fr.body = nil, nil
	size, head, err := fr.length()
	if err != nil {
		return 0, err
	}
	if err := fr.fill(head + size); err != nil {
		return 0, err
	}
	fr.next = head + size
	fr.payload = fr.buf[head:fr.next]
	return fr.next, nil
}

// length reads the frame's length prefix, a uvarint, and returns the
// length and the prefix's own size. It reads a byte more only while the
// bytes it has end inside the prefix, so a frame whole in the socket
// still costs the one read that brought its first byte.
func (fr *frameReader) length() (size, head int, err error) {
	for {
		v, n := binary.Uvarint(fr.buf[:fr.end])
		switch {
		case n > fr.maxPrefix || n < 0 || n == 0 && fr.end >= fr.maxPrefix:
			return 0, 0, fmt.Errorf("wire: frame length prefix longer than %d bytes", fr.maxPrefix)
		case n > 0:
			if v == 0 || v > uint64(fr.maxFrame) {
				return 0, 0, fmt.Errorf("wire: bad frame length %d", v)
			}
			return int(v), n, nil
		}
		if err := fr.fill(fr.end + 1); err != nil {
			if err == io.EOF && fr.end > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, 0, err
		}
	}
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
	if b, ok := v.(Decoder); ok {
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
