package dbwire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
	"time"

	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/wire"
)

// ts builds a timestamp the codec round-trips exactly: it carries
// UnixNano and drops the monotonic clock reading, so constructing from
// nanoseconds makes reflect.DeepEqual hold.
func ts(n int64) time.Time { return time.Unix(0, n) }

func codecMem(id string, v uint64) memento.Memento {
	return memento.Memento{
		Key:     memento.Key{Table: "quote", ID: id},
		Version: v,
		Fields: memento.Fields{
			"symbol": memento.String("s:" + id),
			"price":  memento.Float(101.25),
			"volume": memento.Int(42),
			"open":   memento.Bool(true),
		},
	}
}

// codecDelta is an update of codecMem(id, v) as its changed cells: a
// new price.
func codecDelta(id string, v uint64) memento.Memento {
	return memento.Memento{
		Key:     memento.Key{Table: "quote", ID: id},
		Version: v,
		Fields:  memento.Fields{"price": memento.Float(102.5)},
		Delta:   true,
	}
}

func codecSet(tx uint64) memento.CommitSet {
	return memento.CommitSet{
		Reads: []memento.ReadProof{
			{Key: memento.Key{Table: "quote", ID: "a"}, Version: 3},
			{Key: memento.Key{Table: "quote", ID: "gone"}},
		},
		Writes:  []memento.Memento{codecMem("a", 3)},
		Creates: []memento.Memento{codecMem("new", 0)},
		Removes: []memento.ReadProof{{Key: memento.Key{Table: "quote", ID: "b"}, Version: 7}},
	}
}

func codecQuery() memento.Query {
	return memento.Query{
		Table: "quote",
		Where: []memento.Predicate{
			memento.Where("symbol", memento.String("IBM")),
			memento.Where("volume", memento.Int(10)),
		},
	}
}

// corpusRequests and corpusResponses are representative messages —
// every field the protocol can populate, including the nested OpBatch
// shape. The round-trip test requires exact structural equality for
// each; the fuzz targets start from them.
func corpusRequests() map[string]*Request {
	return map[string]*Request{
		"zero":  {},
		"ping":  {Op: OpPing},
		"begin": {Op: OpBegin},
		"get":   {Op: OpGet, Tx: 9, Table: "quote", ID: "a"},
		"put":   {Op: OpPut, Tx: 9, Mem: codecMem("a", 3)},
		"query": {Op: OpQuery, Tx: 9, Query: codecQuery()},
		"checked put": {
			Op: OpCheckedPut, Tx: 9,
			Key: memento.Key{Table: "quote", ID: "a"}, Version: 4,
			Mem: codecMem("a", 4),
		},
		"checked put of changed cells": {Op: OpCheckedPut, Tx: 9, Mem: codecDelta("a", 4)},
		"apply":                        {Op: OpApplyCommitSet, Set: codecSet(1)},
		"apply changed cells": {Op: OpApplyCommitSet, Set: memento.CommitSet{
			Reads:  []memento.ReadProof{{Key: memento.Key{Table: "quote", ID: "b"}, Version: 2}},
			Writes: []memento.Memento{codecDelta("a", 3), codecMem("c", 5)},
			Origin: 1<<62 | 5,
		}},
		"batch": {
			Op: OpBatch, Tx: 9,
			Batch: []Request{
				{Op: OpGet, Table: "quote", ID: "a"},
				{Op: OpPut, Mem: codecMem("a", 3)},
				{Op: OpCheckedPut, Mem: codecDelta("b", 2)},
				{Op: OpCommit, Tx: 9},
			},
		},
		"nil fields mem": {
			Op:  OpPut,
			Mem: memento.Memento{Key: memento.Key{Table: "t", ID: "x"}},
		},
		"begin under origin":     {Op: OpBegin, Origin: 1<<62 | 5},
		"subscribe":              {Op: OpSubscribe},
		"subscribe under origin": {Op: OpSubscribe, Origin: 1<<62 | 5},
		"apply under origin":     {Op: OpApplyCommitSet, Set: codecSetFrom(1, 1<<62|5)},
		"prepare":                {Op: OpPrepare, Gid: "g-7", Set: codecSetFrom(1, 1<<62|5)},
		"commit prepared":        {Op: OpCommitPrepared, Gid: "g-7"},
	}
}

// codecSetFrom is codecSet shipped by the edge cache named origin.
func codecSetFrom(tx, origin uint64) memento.CommitSet {
	cs := codecSet(tx)
	cs.Origin = origin
	return cs
}

func corpusResponses() map[string]*Response {
	return map[string]*Response{
		"zero":  {},
		"ok tx": {Code: CodeOK, Tx: 77},
		"mem":   {Code: CodeOK, Mem: codecMem("a", 3)},
		"mems": {
			Code: CodeOK,
			Mems: []memento.Memento{codecMem("a", 1), codecMem("b", 2)},
		},
		"error": {Code: CodeNotFound, Msg: "sqlstore: not found"},
		"conflict": {
			Code: CodeConflict, Msg: "sqlstore: optimistic conflict: quote/a",
			Conflict: &ConflictInfo{
				Key:      memento.Key{Table: "quote", ID: "a"},
				Expected: 3, Actual: 4,
				WinnerTrace: 99,
			},
		},
		// A conflict on a removed row: nothing to name but the key and
		// the version the loser read.
		"conflict on a removed row": {
			Code: CodeConflict, Msg: "sqlstore: version conflict: quote/b removed concurrently",
			Conflict: &ConflictInfo{Key: memento.Key{Table: "quote", ID: "b"}, Expected: 1 << 20},
		},
		// A commit reply is the commit's one number; the sender of the
		// set rebuilds every put key's version from it.
		"versions": {Code: CodeOK, Seq: 1<<21 + 5},
		"commit set replies": {
			Code: CodeOK,
			Batch: []Response{
				{Code: CodeOK, Seq: 41},
				{Code: CodeConflict, Msg: "conflict", Conflict: &ConflictInfo{
					Key: memento.Key{Table: "quote", ID: "a"}, Expected: 40, Actual: 41,
				}},
			},
		},
		"notice": {
			Code: CodeOK,
			Notice: sqlstore.Notice{
				Seq: 31,
				Writes: []memento.WriteDesc{{
					Key:   memento.Key{Table: "quote", ID: "a"},
					After: memento.Fields{"price": memento.Float(2)},
				}, {
					// A removed row: its nil After must stay nil, not
					// come back as an empty map (Blind() depends on it).
					Key:     memento.Key{Table: "quote", ID: "b"},
					Removed: true,
				}},
				CommittedAt: ts(1_723_000_000_000_000_456),
				OriginTrace: 555,
			},
		},
		// An update that changed no cell: its empty After must stay
		// non-nil, or the descriptor would read back blind.
		"notice of an unchanged update": {
			Code: CodeOK,
			Notice: sqlstore.Notice{
				Seq:         32,
				Writes:      []memento.WriteDesc{{Key: memento.Key{Table: "quote", ID: "a"}, After: memento.Fields{}}},
				CommittedAt: ts(1_723_000_000_000_000_789),
			},
		},
		"batch": {
			Code: CodeOK,
			Batch: []Response{
				{Code: CodeOK, Mem: codecMem("a", 3)},
				{Code: CodeConflict, Msg: "conflict", Conflict: &ConflictInfo{WinnerTrace: 8}},
			},
		},
	}
}

// crossTwice sends body across one fresh table pair twice, as two
// frames on one connection would: the first time every name travels as
// a literal, the second time as its index. It decodes each frame into a
// fresh value from into and returns both, with their encoded sizes.
func crossTwice[B wire.Body](body B, into func() B) (got [2]B, size [2]int, err error) {
	enc, dec := new(wire.Names), new(wire.Names)
	for i := range got {
		data := body.AppendWire(nil, enc)
		got[i], size[i] = into(), len(data)
		if err = got[i].ReadWire(data, dec); err != nil {
			return
		}
	}
	return
}

// TestCodecRoundTrip crosses every corpus body twice through one table
// pair, so both the literal and the index form of each name are
// decoded, and requires each crossing to reproduce the body exactly. A
// body is never longer the second time.
func TestCodecRoundTrip(t *testing.T) {
	for name, req := range corpusRequests() {
		t.Run("request/"+name, func(t *testing.T) {
			got, size, err := crossTwice(req, func() *Request { return new(Request) })
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			for _, g := range got {
				if !reflect.DeepEqual(g, req) {
					t.Errorf("round trip mismatch:\n got %#v\nwant %#v", g, req)
				}
			}
			if size[1] > size[0] {
				t.Errorf("warm encoding %d bytes, cold %d", size[1], size[0])
			}
		})
	}
	for name, resp := range corpusResponses() {
		t.Run("response/"+name, func(t *testing.T) {
			got, size, err := crossTwice(resp, func() *Response { return new(Response) })
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			for _, g := range got {
				if !reflect.DeepEqual(g, resp) {
					t.Errorf("round trip mismatch:\n got %#v\nwant %#v", g, resp)
				}
			}
			if size[1] > size[0] {
				t.Errorf("warm encoding %d bytes, cold %d", size[1], size[0])
			}
		})
	}
	// A memento names its table and each field: five names, each a
	// literal (a 0 marker, a length byte and the bytes) the first time
	// and a one-byte index after that. "quote", "symbol", "price",
	// "volume" and "open" are 5, 6, 5, 6 and 4 bytes, so the warm body
	// is 5 × (2 − 1) + 26 = 31 bytes shorter.
	mem := &Response{Code: CodeOK, Mem: codecMem("a", 3)}
	if _, size, err := crossTwice(mem, func() *Response { return new(Response) }); err != nil || size[0]-size[1] != 31 {
		t.Errorf("memento reply: cold %d, warm %d bytes (%v), want 31 saved", size[0], size[1], err)
	}
}

// TestCodecNilVsEmptyFields pins the presence-byte encoding of
// Fields maps: a nil map and an empty map are different values (a nil
// After marks a removed or blind write in WriteDesc.Blind) and must
// survive the wire as themselves.
func TestBinaryCodecNilVsEmptyFields(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fields memento.Fields
	}{
		{"nil", nil},
		{"empty", memento.Fields{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := &Request{Op: OpPut, Mem: memento.Memento{
				Key:    memento.Key{Table: "t", ID: "x"},
				Fields: tc.fields,
			}}
			got := new(Request)
			if err := got.ReadWire(req.AppendWire(nil, nil), nil); err != nil {
				t.Fatal(err)
			}
			if (got.Mem.Fields == nil) != (tc.fields == nil) {
				t.Errorf("nil-ness changed: sent nil=%v, got nil=%v",
					tc.fields == nil, got.Mem.Fields == nil)
			}
			if len(got.Mem.Fields) != len(tc.fields) {
				t.Errorf("len changed: %d -> %d", len(tc.fields), len(got.Mem.Fields))
			}
		})
	}
}

// TestCodecTruncatedInput feeds every strict prefix of a valid
// encoding to the decoder: each must return an error (never panic,
// never succeed on partial data). This is the sticky-error reader and
// its bounded length reads under test — the path a truncated frame from
// a fault-injected connection takes.
func TestCodecTruncatedInput(t *testing.T) {
	req := &Request{
		Op: OpBatch, Tx: 9,
		Batch: []Request{
			{Op: OpQuery, Query: codecQuery()},
			{Op: OpApplyCommitSet, Set: codecSet(1)},
		},
	}
	resp := &Response{Code: CodeOK, Mems: []memento.Memento{codecMem("a", 1)}, Seq: 1 << 30}
	// Each body cold (every name a literal) and warm (every name an
	// index into a table that an earlier frame filled). A decoded prefix
	// can only append to the table, past the entries the warm body
	// names, so one table serves every prefix.
	for _, body := range []wire.Body{req, resp} {
		enc, dec := new(wire.Names), new(wire.Names)
		cold := body.AppendWire(nil, enc)
		if err := newLike(body).ReadWire(cold, dec); err != nil {
			t.Fatal(err)
		}
		warm := body.AppendWire(nil, enc)
		for _, data := range [][]byte{cold, warm} {
			for n := 0; n < len(data); n++ {
				if err := newLike(body).ReadWire(data[:n], dec); err == nil {
					t.Fatalf("%T: decoding %d/%d-byte prefix succeeded", body, n, len(data))
				}
			}
		}
	}
}

// newLike returns a fresh body of b's type.
func newLike(b wire.Body) wire.Body {
	return reflect.New(reflect.TypeOf(b).Elem()).Interface().(wire.Body)
}

// TestCodecRejectsMalformedBodies: a length prefix claiming more
// elements than the buffer could possibly hold must fail cleanly
// instead of attempting a huge allocation; bytes past the end of a body,
// a batch nested in a batch, a name index past the receiver's table and
// a presence bit that names no field are refused.
func TestCodecRejectsMalformedBodies(t *testing.T) {
	// Code byte, presence mask (only respMems), then the Mems count:
	// splice in an absurd count and keep the tail.
	data := (&Response{Mems: []memento.Memento{codecMem("a", 1)}}).AppendWire(nil, nil)
	corrupt := append([]byte{}, data[:2]...)
	corrupt = append(corrupt, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f) // huge uvarint
	corrupt = append(corrupt, data[3:]...)
	if err := new(Response).ReadWire(corrupt, nil); err == nil {
		t.Error("decoder accepted a length far beyond the buffer")
	}

	if err := new(Response).ReadWire(append(data, 0), nil); err == nil {
		t.Error("decoder accepted a trailing byte")
	}

	inner := Request{Op: OpBatch, Batch: []Request{{Op: OpCommit}}}
	nested := (&Request{Op: OpBatch, Batch: []Request{inner}}).AppendWire(nil, nil)
	if err := new(Request).ReadWire(nested, nil); err == nil {
		t.Error("decoder accepted a batch inside a batch")
	}
	nestedResp := (&Response{Batch: []Response{{Batch: []Response{{Tx: 1}}}}}).AppendWire(nil, nil)
	if err := new(Response).ReadWire(nestedResp, nil); err == nil {
		t.Error("decoder accepted a batch result inside a batch result")
	}

	// A warm body read by a receiver that never saw the frame which
	// filled the sender's table: its first index is past the end.
	enc := new(wire.Names)
	mem := &Response{Mem: codecMem("a", 1)}
	mem.AppendWire(nil, enc)
	if err := new(Response).ReadWire(mem.AppendWire(nil, enc), new(wire.Names)); err == nil {
		t.Error("decoder accepted a name index past its table")
	}

	// A value kind no peer writes, with no payload after it; the zero
	// kind, which memento.AppendValue does write, still decodes.
	if err := new(Response).ReadWire(unknownKindResponse(), nil); err == nil {
		t.Error("decoder accepted a response with an unknown value kind")
	}
	if err := new(Request).ReadWire(unknownKindRequest(), nil); err == nil {
		t.Error("decoder accepted a request with an unknown value kind")
	}
	zero := &Response{Mem: memento.Memento{Key: memento.Key{Table: "t", ID: "x"}, Fields: memento.Fields{"z": {}}}}
	var got Response
	if err := got.ReadWire(zero.AppendWire(nil, nil), nil); err != nil || !got.Mem.Equal(zero.Mem) {
		t.Errorf("zero-kind value decoded as %v, %v", got.Mem, err)
	}

	// A mask bit no field owns: read past, the bytes of whatever field
	// it stood for would be taken for the next field's. The retired
	// grouped apply's bit, between reqBatch and reqGid, is one; a zero
	// count of sets after it once decoded as an empty group.
	planted := func(head byte, mask uint64, tail ...byte) []byte {
		return append(binary.AppendUvarint([]byte{head}, mask), tail...)
	}
	if err := new(Request).ReadWire(planted(byte(OpPing), reqBatch<<1, 0), nil); err == nil {
		t.Error("decoder accepted a request with the retired grouped apply's bit")
	}
	// The retired keys-only subscription's bit 12 is another: its
	// Subscribe carried it and no byte for it.
	if err := new(Request).ReadWire(planted(byte(OpSubscribe), 1<<12), nil); err == nil {
		t.Error("decoder accepted a subscription with the retired keys-only bit")
	}
	for _, bit := range []uint64{0, reqOrigin << 2} {
		err := new(Request).ReadWire(planted(byte(OpGet), reqID|bit, 1, 'a'), nil)
		if (err == nil) != (bit == 0) {
			t.Errorf("request with mask bit %#x past its fields: err = %v", bit, err)
		}
	}
	for _, bit := range []uint64{0, respBatch << 1} {
		err := new(Response).ReadWire(planted(byte(CodeOK), respSeq|bit, 5), nil)
		if (err == nil) != (bit == 0) {
			t.Errorf("response with mask bit %#x past its fields: err = %v", bit, err)
		}
	}
}

// unknownKindMem is a memento holding a value of kind 7, which
// memento.AppendValue writes as its kind byte alone.
func unknownKindMem() memento.Memento {
	return memento.Memento{Key: memento.Key{Table: "t", ID: "x"}, Fields: memento.Fields{"k": {Kind: 7}}}
}

func unknownKindResponse() []byte {
	return (&Response{Mem: unknownKindMem()}).AppendWire(nil, nil)
}

func unknownKindRequest() []byte {
	return (&Request{Op: OpPut, Mem: unknownKindMem()}).AppendWire(nil, nil)
}

// claimedCount builds a body that opens with head (code or op byte and
// presence mask) and then claims one element per byte of a 4 MiB tail
// no element decodes from: Reader.Len lets the count through, since the
// bytes are there.
func claimedCount(head ...byte) []byte {
	const tail = 4 << 20
	body := binary.AppendUvarint(head, tail)
	return append(body, bytes.Repeat([]byte{0xff}, tail)...)
}

// TestCodecClaimedCountReservesLittle: a frame's element count is a
// claim, and a decoded Request is some 200 times its smallest encoding,
// so reserving the claimed count up front let one 4 MiB frame ask for
// over a gigabyte. The decoders reserve wire.Prealloc and grow by
// append; a body that fails on its first element must cost about what
// its bytes do.
func TestCodecClaimedCountReservesLittle(t *testing.T) {
	reqBatchMask := binary.AppendUvarint([]byte{byte(OpBatch)}, reqBatch)
	respBatchMask := binary.AppendUvarint([]byte{byte(CodeOK)}, respBatch)
	respMemsMask := binary.AppendUvarint([]byte{byte(CodeOK)}, respMems)
	for name, decode := range map[string]func() error{
		"Request.Batch":  func() error { return new(Request).ReadWire(claimedCount(reqBatchMask...), nil) },
		"Response.Batch": func() error { return new(Response).ReadWire(claimedCount(respBatchMask...), nil) },
		"Response.Mems":  func() error { return new(Response).ReadWire(claimedCount(respMemsMask...), nil) },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoder accepted 4 MiB of 0xff as elements", name)
		}
		// The body itself is 4 MiB and a bit (append's growth); the
		// decoder may add a few hundred elements' worth.
		if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
			t.Errorf("%s: decoding a 4 MiB body allocated %d MiB", name, got>>20)
		}
	}
}

// FuzzRequestReadWire and FuzzResponseReadWire feed arbitrary bytes to
// the decoders, starting from the round-trip corpus, each input read as
// the frame after one that filled the receiver's name table. The seeds
// are every corpus body cold, with its names as literals, and warm,
// encoded after the same filling frame, so the mutator starts from
// indices into a live table. A body either fails to decode or decodes
// to a value that crosses a fresh table pair twice; nothing may panic,
// and a collection is reserved by wire.Prealloc, not by the count its
// frame claims.
func FuzzRequestReadWire(f *testing.F) {
	fill := corpusRequests()["batch"]
	for _, req := range corpusRequests() {
		enc, _ := filledTables(f, fill)
		f.Add(req.AppendWire(nil, nil))
		f.Add(req.AppendWire(nil, enc))
	}
	f.Add(unknownKindRequest())
	// Changed cells where no update stands, a presence byte past 2 and
	// an origin that is not eight bytes: each fails to decode.
	f.Add((&Request{Op: OpApplyCommitSet, Set: memento.CommitSet{Creates: []memento.Memento{codecDelta("a", 3)}}}).AppendWire(nil, nil))
	f.Add((&Request{Op: OpInsert, Tx: 9, Mem: codecDelta("a", 3)}).AppendWire(nil, nil))
	f.Add(bytes.Replace((&Request{Op: OpCheckedPut, Tx: 9, Mem: codecDelta("a", 3)}).AppendWire(nil, nil), []byte("\x02\x01\x00\x05price"), []byte("\x03\x01\x00\x05price"), 1))
	f.Add(append(binary.AppendUvarint([]byte{byte(OpBegin)}, reqOrigin), 0, 3, 'a', 'b', 'c'))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, dec := filledTables(t, fill)
		req := new(Request)
		if req.ReadWire(data, dec) != nil {
			return
		}
		if _, _, err := crossTwice(req, func() *Request { return new(Request) }); err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
	})
}

func FuzzResponseReadWire(f *testing.F) {
	fill := corpusResponses()["notice"]
	for _, resp := range corpusResponses() {
		enc, _ := filledTables(f, fill)
		f.Add(resp.AppendWire(nil, nil))
		f.Add(resp.AppendWire(nil, enc))
	}
	f.Add(unknownKindResponse())
	f.Fuzz(func(t *testing.T, data []byte) {
		_, dec := filledTables(t, fill)
		resp := new(Response)
		if resp.ReadWire(data, dec) != nil {
			return
		}
		if _, _, err := crossTwice(resp, func() *Response { return new(Response) }); err != nil {
			t.Fatalf("re-encoded response does not decode: %v", err)
		}
	})
}

// filledTables returns a sender's and a receiver's table after fill has
// crossed between them.
func filledTables(tb testing.TB, fill wire.Body) (enc, dec *wire.Names) {
	enc, dec = new(wire.Names), new(wire.Names)
	if err := newLike(fill).ReadWire(fill.AppendWire(nil, enc), dec); err != nil {
		tb.Fatal(err)
	}
	return enc, dec
}

// BenchmarkBinaryCodec measures encode+decode of a representative
// read-response (the hot shape of the Figure 6 workload) for the
// allocs/op budget CI enforces. Every frame after the first is warm, as
// on a connection in use: its names are indices into tables the first
// frame filled.
func BenchmarkBinaryCodec(b *testing.B) {
	resp := &Response{Code: CodeOK, Mem: codecMem("a", 3)}
	enc, dec := new(wire.Names), new(wire.Names)
	var buf []byte
	got := new(Response)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = resp.AppendWire(buf[:0], enc)
		*got = Response{}
		if err := got.ReadWire(buf, dec); err != nil {
			b.Fatal(err)
		}
	}
}

// presence returns body with the presence byte of the field map that
// holds the one field "price" set to b: the map's first name is a
// literal, so the byte is the one before its count (1) and the
// literal's marker (0), its length (5) and "price".
func presence(t *testing.T, body []byte, b byte) []byte {
	t.Helper()
	i := bytes.Index(body, []byte("\x01\x00\x05price"))
	if i < 1 {
		t.Fatalf("no one-field map holding price in % x", body)
	}
	out := bytes.Clone(body)
	out[i-1] = b
	return out
}

// TestCodecRefusesMisplacedChangedCells: an update's changed cells
// (memento.Memento.Delta, presence byte 2) decode only as a commit
// set's write or a checked put at a version read. On a create, at
// version 0, in a read reply, in a notice or on a put or an insert they
// fail the body, and so does a presence byte past 2 anywhere.
func TestCodecRefusesMisplacedChangedCells(t *testing.T) {
	delta := codecDelta("a", 3)
	atZero := codecDelta("a", 0)
	for name, req := range map[string]*Request{
		"create":                   {Op: OpApplyCommitSet, Set: memento.CommitSet{Creates: []memento.Memento{delta}}},
		"write at version 0":       {Op: OpApplyCommitSet, Set: memento.CommitSet{Writes: []memento.Memento{atZero}}},
		"checked put at version 0": {Op: OpCheckedPut, Tx: 9, Mem: atZero},
		"prepare at version 0":     {Op: OpPrepare, Gid: "g", Set: memento.CommitSet{Writes: []memento.Memento{atZero}}},
		"put":                      {Op: OpPut, Tx: 9, Mem: delta},
		"insert":                   {Op: OpInsert, Tx: 9, Mem: delta},
		"insert in a batch":        {Op: OpBatch, Tx: 9, Batch: []Request{{Op: OpInsert, Mem: delta}}},
	} {
		if err := new(Request).ReadWire(req.AppendWire(nil, nil), nil); err == nil {
			t.Errorf("request: changed cells decoded on a %s", name)
		}
	}
	notice := &Response{Code: CodeOK, Notice: sqlstore.Notice{Seq: 3, Writes: []memento.WriteDesc{
		{Key: delta.Key, After: delta.Fields},
	}}}
	for name, body := range map[string][]byte{
		"read reply":            (&Response{Code: CodeOK, Mem: delta}).AppendWire(nil, nil),
		"query reply":           (&Response{Code: CodeOK, Mems: []memento.Memento{delta}}).AppendWire(nil, nil),
		"read reply in a batch": (&Response{Code: CodeOK, Batch: []Response{{Mem: delta}}}).AppendWire(nil, nil),
		"notice":                presence(t, notice.AppendWire(nil, nil), 2),
	} {
		if err := new(Response).ReadWire(body, nil); err == nil {
			t.Errorf("response: changed cells decoded in a %s", name)
		}
	}

	// Presence byte 3 and up is no marker at all: refused on a write
	// that could carry changed cells, a read reply and a notice alike.
	write := (&Request{Op: OpApplyCommitSet, Set: memento.CommitSet{Writes: []memento.Memento{delta}}}).AppendWire(nil, nil)
	if err := new(Request).ReadWire(write, nil); err != nil {
		t.Fatalf("changed cells of a write: %v", err)
	}
	for _, b := range []byte{3, 0xff} {
		if err := new(Request).ReadWire(presence(t, write, b), nil); err == nil {
			t.Errorf("request: presence byte %d decoded", b)
		}
		reply := (&Response{Code: CodeOK, Mem: codecDelta("a", 3)}).AppendWire(nil, nil)
		for name, body := range map[string][]byte{
			"read reply": presence(t, reply, b),
			"notice":     presence(t, notice.AppendWire(nil, nil), b),
		} {
			if err := new(Response).ReadWire(body, nil); err == nil {
				t.Errorf("response: presence byte %d decoded in a %s", b, name)
			}
		}
	}
}

// TestCodecRefusesOriginNotEightBytes: an origin is its eight bytes as
// a name (wire.AppendUint64Name). A name of any other length, on a
// Begin, a Subscribe or a commit set, fails the body, whether it came
// as a literal or as an index into the table.
func TestCodecRefusesOriginNotEightBytes(t *testing.T) {
	planted := func(head byte, mask uint64, tail ...byte) []byte {
		return append(binary.AppendUvarint([]byte{head}, mask), tail...)
	}
	eight := []byte{0, 8, 1, 2, 3, 4, 5, 6, 7, 8}
	for _, op := range []OpCode{OpBegin, OpSubscribe} {
		if err := new(Request).ReadWire(planted(byte(op), reqOrigin, eight...), nil); err != nil {
			t.Fatalf("%s under an eight-byte origin: %v", op, err)
		}
		for _, name := range [][]byte{{0, 0}, {0, 7, 1, 2, 3, 4, 5, 6, 7}, {0, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9}} {
			if err := new(Request).ReadWire(planted(byte(op), reqOrigin, name...), nil); err == nil {
				t.Errorf("%s decoded an origin of %d bytes", op, name[1])
			}
		}
	}
	// A commit set ends in its origin: swap the eight-byte literal for
	// a three-byte one.
	set := (&Request{Op: OpApplyCommitSet, Set: memento.CommitSet{Reads: []memento.ReadProof{{Key: memento.Key{Table: "t", ID: "1"}, Version: 1}}}}).AppendWire(nil, nil)
	short := append(bytes.Clone(set[:len(set)-10]), 0, 3, 'a', 'b', 'c')
	if err := new(Request).ReadWire(short, nil); err == nil {
		t.Error("commit set decoded a three-byte origin")
	}
	// By index: once the set has crossed, the receiver's table holds
	// "t" at index 0 and the origin at 1; index 0 (uvarint 1) stands
	// where the origin should.
	dec := new(wire.Names)
	if err := new(Request).ReadWire(set, dec); err != nil {
		t.Fatal(err)
	}
	byIndex := append(bytes.Clone(set[:len(set)-10]), 1)
	if err := new(Request).ReadWire(byIndex, dec); err == nil {
		t.Error("commit set decoded a one-byte name by index as its origin")
	}
}
