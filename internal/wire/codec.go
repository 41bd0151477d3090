package wire

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Body is a message that encodes and decodes itself: the transport
// writes the frame header and hands the rest of the frame to the body,
// together with the connection's name table for that direction (see
// Names). The encoding is not self-describing — both peers build from
// this tree and agree on the field order — so a schema change edits the
// encoder and the decoder in one commit. A body that sends no names
// ignores the table. A message that only ever travels one way
// implements only its half: the frame writer asks for an Encoder, the
// frame reader for a Decoder.
type Body interface {
	Encoder
	Decoder
}

// Encoder is the sending half of a Body.
type Encoder interface {
	// AppendWire appends the body's encoding to dst and returns the
	// extended slice. t is the sending side's table.
	AppendWire(dst []byte, t *Names) []byte
}

// Decoder is the receiving half of a Body.
type Decoder interface {
	// ReadWire decodes one body from data, the remainder of a frame,
	// against the receiving side's table t. data is the connection's
	// reused read buffer: ReadWire must copy out every byte it keeps.
	ReadWire(data []byte, t *Names) error
}

// Names is one direction of a connection's name table, HPACK's dynamic
// table (RFC 7541) without eviction. The first time a name crosses the
// connection it travels as a literal and both ends enter it under the
// next index; after that it travels as that index. The writer of a
// direction uses the send half, its reader the receive half, and both
// apply one entry rule (at most 1024 entries, each at most 64 bytes),
// so they stay in step without any resync and a hostile peer cannot
// grow the table past its bound. A fresh connection
// starts with empty tables at both ends. The zero value is an empty
// table; a nil *Names enters nothing, so every name is a literal.
type Names struct {
	sent map[string]uint64 // send half: name -> index
	got  []string          // receive half: index -> name
}

// The entry rule both halves apply to a literal.
const (
	maxNames   = 1024
	maxNameLen = 64
)

// enters reports whether a literal s, met with n entries in the table,
// is entered.
func enters(n int, s string) bool { return n < maxNames && len(s) <= maxNameLen }

// AppendName appends s as uvarint i+1 if it is entry i of t, and
// otherwise as uvarint 0 and the literal, which t then enters if the
// entry rule allows.
func AppendName(dst []byte, t *Names, s string) []byte {
	if t != nil {
		if i, ok := t.sent[s]; ok {
			return binary.AppendUvarint(dst, i+1)
		}
		if enters(len(t.sent), s) {
			if t.sent == nil {
				t.sent = make(map[string]uint64)
			}
			t.sent[s] = uint64(len(t.sent))
		}
	}
	return AppendString(append(dst, 0), s)
}

// AppendUint64Name appends v's eight big-endian bytes as a name (see
// AppendName): an identifier a connection sees again and again, such as
// an edge's origin, costs its ten literal bytes once and its index
// after that. A name already in t is appended without allocating.
func AppendUint64Name(dst []byte, t *Names, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	if t != nil {
		if i, ok := t.sent[string(b[:])]; ok {
			return binary.AppendUvarint(dst, i+1)
		}
	}
	return AppendName(dst, t, string(b[:]))
}

// AppendString appends a uvarint length and the string's bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a uvarint length and the bytes.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendBool appends one byte, 1 or 0.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendTime encodes a wall-clock instant: a presence byte (the zero
// time is not unix zero) plus fixed 8-byte unix nanoseconds. The
// monotonic reading is dropped.
func AppendTime(dst []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return binary.BigEndian.AppendUint64(dst, uint64(t.UnixNano()))
}

// Reader decodes the primitives with a sticky error: after the first
// malformed read every further read returns zero values, and Err
// surfaces the failure once at the end.
type Reader struct {
	b   []byte
	off int
	err error
	t   *Names
}

// NewReader returns a reader over one body's bytes that reads names
// against t (nil for a body that sends none).
func NewReader(b []byte, t *Names) *Reader { return &Reader{b: b, t: t} }

// Err returns the first decode failure, or an error for bytes left
// undecoded: a body that does not end where its decoder does was
// written by a different schema.
func (r *Reader) Err() error {
	if r.err == nil && r.off != len(r.b) {
		r.err = fmt.Errorf("wire: %d trailing bytes after body", len(r.b)-r.off)
	}
	return r.err
}

// Failed reports whether a read has already failed; decoders check it
// to stop filling collections from a broken stream.
func (r *Reader) Failed() bool { return r.err != nil }

// Fail marks the body malformed at the current offset; decoders call it
// for a value that is well-formed as bytes but not allowed where it
// stands.
func (r *Reader) Fail() {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated or malformed body at offset %d", r.off)
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.Fail()
		return 0
	}
	b := r.b[r.off]
	r.off++
	return b
}

// Bool reads one byte as a boolean.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.off += n
	return v
}

// Len reads a collection count and refuses one larger than the bytes
// remaining (every element takes at least one). That alone does not
// bound what a decoder may reserve — a decoded element can be a hundred
// times its smallest encoding — so decoders size collections with
// Prealloc and grow them as elements actually decode.
func (r *Reader) Len() int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.b)-r.off) {
		r.Fail()
		return 0
	}
	return int(v)
}

// Prealloc is the capacity to reserve for a collection whose frame
// claims n elements: n itself up to a few hundred, which covers every
// collection the protocols send, and no more than that on a frame's
// say-so.
func Prealloc(n int) int { return min(n, 256) }

// Uint64 reads a fixed 8-byte big-endian integer.
func (r *Reader) Uint64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.Fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := r.Len()
	if n == 0 {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// Name reads a name written by AppendName. A literal is entered in the
// reader's table under the same rule the sender applied; an index past
// the end of the table fails the body. A name read by index is the
// table's own string, so it costs no allocation.
func (r *Reader) Name() string {
	i := r.Uvarint()
	if i == 0 {
		s := r.Str()
		if r.err == nil && r.t != nil && enters(len(r.t.got), s) {
			r.t.got = append(r.t.got, s)
		}
		return s
	}
	if r.err != nil || r.t == nil || i > uint64(len(r.t.got)) {
		r.Fail()
		return ""
	}
	return r.t.got[i-1]
}

// Uint64Name reads a name written by AppendUint64Name; a name that is
// not eight bytes long fails the body.
func (r *Reader) Uint64Name() uint64 {
	s := r.Name()
	if len(s) != 8 {
		r.Fail()
		return 0
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(s[i])
	}
	return v
}

// Bytes reads a length-prefixed byte slice into fresh memory; a zero
// length reads as nil.
func (r *Reader) Bytes() []byte {
	n := r.Len()
	if n == 0 {
		return nil
	}
	b := append([]byte(nil), r.b[r.off:r.off+n]...)
	r.off += n
	return b
}

// Time reads an instant written by AppendTime.
func (r *Reader) Time() time.Time {
	if r.Byte() == 0 {
		return time.Time{}
	}
	return time.Unix(0, int64(r.Uint64()))
}
