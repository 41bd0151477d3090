package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// chunkReader hands out a byte stream in reads whose lengths rng picks:
// from one byte up to several frames' worth, never more than the
// caller's buffer holds.
type chunkReader struct {
	data []byte
	rng  *rand.Rand
	most int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(1+r.rng.Intn(r.most), len(p), len(r.data))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// countingReader counts the reads made of r.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// frameAtATime hands out a byte stream one whole frame per read, as a
// socket does whose peer writes a frame at a time and is read as each
// one lands.
type frameAtATime struct {
	data  []byte
	sizes []int // the wire size of each frame, in order
	reads int
}

func (r *frameAtATime) Read(p []byte) (int, error) {
	r.reads++
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(r.sizes[0], len(p))
	if r.sizes[0] -= n; r.sizes[0] == 0 {
		r.sizes = r.sizes[1:]
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

type sentFrame struct {
	h    frameHeader
	body testReq
	size int
}

// randomFrames writes n frames of random headers and bodies, and
// returns them with the stream they make. A frame without a big body
// is under 90 bytes; one in four, when big is set, carries up to
// several times minReadBuf.
func randomFrames(t *testing.T, rng *rand.Rand, n int, big bool) ([]sentFrame, []byte) {
	t.Helper()
	var stream captureWriter
	fw := newFrameWriter(&stream)
	frames := make([]sentFrame, n)
	for i := range frames {
		f := &frames[i]
		f.h = frameHeader{ID: rng.Uint64() >> rng.Intn(64), Kind: kindRequest + uint8(rng.Intn(3))}
		if rng.Intn(3) == 0 {
			f.h.Trace, f.h.Span = rng.Uint64(), rng.Uint64()
		}
		size := rng.Intn(48)
		if big && rng.Intn(4) == 0 {
			size = rng.Intn(4 * minReadBuf)
		}
		f.body = testReq{Op: "echo", Payload: strings.Repeat(string(rune('a'+i%26)), size), N: rng.Intn(1 << 20)}
		var err error
		if f.size, err = fw.writeFrame(&f.h, &f.body); err != nil {
			t.Fatal(err)
		}
	}
	return frames, stream
}

// readFrames reads want back through fr, checking every header and
// body and, when readsFor is set, that frame i cost readsFor(i) of the
// reads counted in reads.
func readFrames(t *testing.T, fr *frameReader, want []sentFrame, reads *int, readsFor func(i int) int) {
	t.Helper()
	for i, f := range want {
		before := 0
		if readsFor != nil {
			before = *reads
		}
		size, err := fr.readFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if readsFor != nil {
			if got, want := *reads-before, readsFor(i); got != want {
				t.Fatalf("frame %d (%d bytes) took %d reads, want %d", i, f.size, got, want)
			}
		}
		h, err := fr.readHeader()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		var body testReq
		if err := fr.decodeBody(&body); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if size != f.size || h != f.h || body != f.body {
			t.Fatalf("frame %d: read %d bytes, %+v, %q/%d; sent %d bytes, %+v, %q/%d",
				i, size, h, body.Op, body.N, f.size, f.h, f.body.Op, f.body.N)
		}
	}
	if _, err := fr.readFrame(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want EOF", err)
	}
}

// TestFrameReaderAnyChunking: however a stream of frames is split into
// reads, from a byte at a time to several frames in one, it decodes to
// the frames sent. A frame whole in the socket costs exactly one read,
// except the one that first outgrows the buffer, which costs two; the
// frames that one read brought in cost none. A bad length prefix fails
// before the buffer grows for it.
func TestFrameReaderAnyChunking(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		frames, stream := randomFrames(t, rng, 1+rng.Intn(40), true)

		chunked := &chunkReader{data: stream, rng: rng, most: 1 + rng.Intn(3*minReadBuf)}
		readFrames(t, newFrameReader(chunked, DefaultMaxFrame), frames, nil, nil)

		sizes := make([]int, len(frames))
		for i, f := range frames {
			sizes[i] = f.size
		}
		whole := &frameAtATime{data: stream, sizes: sizes}
		fr := newFrameReader(whole, DefaultMaxFrame)
		readFrames(t, fr, frames, &whole.reads, func(i int) int {
			largest := minReadBuf
			for _, f := range frames[:i] {
				largest = max(largest, f.size)
			}
			if frames[i].size > largest {
				return 2
			}
			return 1
		})

		grown := len(fr.buf)
		fr.r = bytes.NewReader(binary.AppendUvarint(nil, DefaultMaxFrame+1))
		if _, err := fr.readFrame(); err == nil || len(fr.buf) != grown {
			t.Fatalf("seed %d: an oversize length prefix read as %v, buffer %d -> %d bytes", seed, err, grown, len(fr.buf))
		}

		// Five small frames fit the first read's buffer together.
		frames, stream = randomFrames(t, rng, 5, false)
		merged := &countingReader{r: bytes.NewReader(stream)}
		readFrames(t, newFrameReader(merged, DefaultMaxFrame), frames, &merged.reads, func(i int) int {
			if i == 0 {
				return 1
			}
			return 0
		})
	}
}

// TestFrameLengthPrefix pins the prefix: a uvarint of the frame's size,
// one byte under 128 bytes and two from there, written in the frame's
// one Write. The reader refuses a zero length, a length past its cap, a
// prefix longer than the cap's own uvarint (4 bytes for
// DefaultMaxFrame) and a prefix the stream ends inside.
func TestFrameLengthPrefix(t *testing.T) {
	for _, tc := range []struct {
		payload, prefix int
	}{{2, 1}, {127, 1}, {128, 2}, {16383, 2}, {16384, 3}} {
		var sink countingWriter
		fw := newFrameWriter(&sink)
		// An untraced header with ID 1 is 2 bytes, and the body is the
		// payload less those.
		n, err := fw.writeFrame(&frameHeader{ID: 1, Kind: kindRequest}, rawBody(make([]byte, tc.payload-2)))
		if err != nil {
			t.Fatal(err)
		}
		if n != tc.prefix+tc.payload || sink.writes != 1 || len(sink.data) != n {
			t.Errorf("%d-byte frame: %d bytes in %d writes, want %d in 1", tc.payload, len(sink.data), sink.writes, tc.prefix+tc.payload)
		}
		fr := newFrameReader(bytes.NewReader(sink.data), DefaultMaxFrame)
		if size, err := fr.readFrame(); err != nil || size != n || len(fr.payload) != tc.payload {
			t.Errorf("%d-byte frame read back as %d bytes, %d of payload: %v", tc.payload, size, len(fr.payload), err)
		}
	}

	for _, tc := range []struct {
		name   string
		stream []byte
		want   string
	}{
		{"zero length", []byte{0, 1, 2}, "bad frame length 0"},
		{"past the cap", binary.AppendUvarint(nil, DefaultMaxFrame+1), "bad frame length"},
		{"prefix longer than the cap needs", []byte{0x81, 0x80, 0x80, 0x80, 0x00}, "longer than 4 bytes"},
		{"prefix with no end", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, "longer than 4 bytes"},
		{"truncated prefix", []byte{0x81, 0x80}, io.ErrUnexpectedEOF.Error()},
	} {
		fr := newFrameReader(bytes.NewReader(tc.stream), DefaultMaxFrame)
		if _, err := fr.readFrame(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: readFrame = %v, want %q", tc.name, err, tc.want)
		}
	}
	// A stream that ends between frames ends cleanly.
	if _, err := newFrameReader(bytes.NewReader(nil), DefaultMaxFrame).readFrame(); err != io.EOF {
		t.Errorf("empty stream: readFrame = %v, want EOF", err)
	}
}

// countingWriter keeps what it is written and counts the Writes.
type countingWriter struct {
	data   []byte
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.data = append(w.data, p...)
	return len(p), nil
}

// rawBody is a body that is its bytes.
type rawBody []byte

func (b rawBody) AppendWire(dst []byte, _ *Names) []byte { return append(dst, b...) }
func (b rawBody) ReadWire([]byte, *Names) error          { return nil }
