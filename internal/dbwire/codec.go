package dbwire

import (
	"encoding/binary"

	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/wire"
)

// Request and Response encode themselves (wire.Body): a message opens
// with its op or code byte and a presence bitmask, then carries only
// the non-zero fields, integers as varints, so the high-volume
// Get/Query/Commit traffic — the traffic Figure 8 weighs — is cheap to
// encode and small on the wire. Absent fields decode to their zero
// values. A read reply carries its rows and nothing else: what a finder
// covered, the edge's finder cache works out from the query it sent and
// those rows.
//
// Table and field names (Key.Table, Request.Table, Query.Table,
// Predicate.Field and every Fields name) go through the connection's
// name table (wire.Names): a name is a literal the first time it
// crosses a connection and a one-byte index after that, and a decoded
// name is the table's own string. An edge's origin (Request.Origin, and
// CommitSet.Origin on every set) is a name too, its eight bytes, so it
// costs ten bytes the first time and one after that. IDs, messages, gids
// and string values stay literals, since there is no bound on how many
// distinct ones a connection sees. Keys, values, field maps and mementos
// are package memento's row encoding (memento.AppendMemento and its
// kin), the one the store's snapshot file is written in too. An update's
// changed cells (memento.Memento.Delta) decode only where an update
// stands, a commit set's write or a checked put; a read reply, a create,
// a notice or any other statement that carries them fails to decode.
//
// The encoding is not self-describing: both peers must agree on the
// field order below, and on the frames before it, which filled the name
// table. Every daemon builds from this tree, so a schema change edits
// the append and read functions in one commit; the round-trip test in
// codec_test.go fails for a struct field that neither carries.

var (
	_ wire.Body = (*Request)(nil)
	_ wire.Body = (*Response)(nil)
)

// AppendWire implements wire.Body.
func (q *Request) AppendWire(dst []byte, t *wire.Names) []byte { return appendRequest(dst, t, q) }

// ReadWire implements wire.Body.
func (q *Request) ReadWire(data []byte, t *wire.Names) error {
	r := wire.NewReader(data, t)
	readRequest(r, q, false)
	return r.Err()
}

// AppendWire implements wire.Body.
func (p *Response) AppendWire(dst []byte, t *wire.Names) []byte { return appendResponse(dst, t, p) }

// ReadWire implements wire.Body.
func (p *Response) ReadWire(data []byte, t *wire.Names) error {
	r := wire.NewReader(data, t)
	readResponse(r, p, false)
	return r.Err()
}

// Request field bits (after the always-present Op byte).
const (
	reqTx = 1 << iota
	reqTable
	reqID
	reqKey
	reqVersion
	reqMem
	reqQuery
	reqSet
	reqBatch
	_ // the retired grouped apply's sets; readRequest refuses the bit
	reqGid
	reqOrigin
	_ // the retired keys-only subscription; readRequest refuses the bit

	// reqFields is every bit a field owns. A mask with any other bit,
	// the retired ones included, fails to decode: read on, it would take
	// the bytes of the field it names for the next field's.
	reqFields = reqTx | reqTable | reqID | reqKey | reqVersion | reqMem | reqQuery |
		reqSet | reqBatch | reqGid | reqOrigin
)

func appendRequest(dst []byte, t *wire.Names, q *Request) []byte {
	dst = append(dst, byte(q.Op))
	var mask uint64
	if q.Tx != 0 {
		mask |= reqTx
	}
	if q.Table != "" {
		mask |= reqTable
	}
	if q.ID != "" {
		mask |= reqID
	}
	if q.Key != (memento.Key{}) {
		mask |= reqKey
	}
	if q.Version != 0 {
		mask |= reqVersion
	}
	if !memIsZero(q.Mem) {
		mask |= reqMem
	}
	if !queryIsZero(q.Query) {
		mask |= reqQuery
	}
	if !q.Set.IsEmpty() {
		mask |= reqSet
	}
	if len(q.Batch) > 0 {
		mask |= reqBatch
	}
	if q.Gid != "" {
		mask |= reqGid
	}
	if q.Origin != 0 {
		mask |= reqOrigin
	}
	dst = binary.AppendUvarint(dst, mask)
	if mask&reqTx != 0 {
		dst = binary.AppendUvarint(dst, q.Tx)
	}
	if mask&reqTable != 0 {
		dst = wire.AppendName(dst, t, q.Table)
	}
	if mask&reqID != 0 {
		dst = wire.AppendString(dst, q.ID)
	}
	if mask&reqKey != 0 {
		dst = memento.AppendKey(dst, t, q.Key)
	}
	if mask&reqVersion != 0 {
		dst = binary.AppendUvarint(dst, q.Version)
	}
	if mask&reqMem != 0 {
		dst = memento.AppendMemento(dst, t, q.Mem)
	}
	if mask&reqQuery != 0 {
		dst = appendQuery(dst, t, q.Query)
	}
	if mask&reqSet != 0 {
		dst = appendCommitSet(dst, t, q.Set)
	}
	if mask&reqBatch != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(q.Batch)))
		for i := range q.Batch {
			dst = appendRequest(dst, t, &q.Batch[i])
		}
	}
	if mask&reqGid != 0 {
		dst = wire.AppendString(dst, q.Gid)
	}
	if mask&reqOrigin != 0 {
		dst = wire.AppendUint64Name(dst, t, q.Origin)
	}
	return dst
}

// readRequest decodes one request. A batch's statements are nested
// requests; they may not carry a batch of their own, which bounds the
// decoder's recursion however deep a hostile frame nests.
func readRequest(r *wire.Reader, q *Request, nested bool) {
	q.Op = OpCode(r.Byte())
	mask := r.Uvarint()
	if mask&^reqFields != 0 || nested && mask&reqBatch != 0 {
		r.Fail()
		return
	}
	if mask&reqTx != 0 {
		q.Tx = r.Uvarint()
	}
	if mask&reqTable != 0 {
		q.Table = r.Name()
	}
	if mask&reqID != 0 {
		q.ID = r.Str()
	}
	if mask&reqKey != 0 {
		q.Key = memento.ReadKey(r)
	}
	if mask&reqVersion != 0 {
		q.Version = r.Uvarint()
	}
	if mask&reqMem != 0 {
		// Only a checked put may carry an update's changed cells: an
		// insert creates, and a put replaces whatever is there.
		q.Mem = memento.ReadUpdate(r)
		if q.Mem.Delta && q.Op != OpCheckedPut {
			r.Fail()
		}
	}
	if mask&reqQuery != 0 {
		q.Query = readQuery(r)
	}
	if mask&reqSet != 0 {
		q.Set = readCommitSet(r)
	}
	if mask&reqBatch != 0 {
		n := r.Len()
		q.Batch = make([]Request, 0, wire.Prealloc(n))
		for i := 0; i < n && !r.Failed(); i++ {
			q.Batch = append(q.Batch, Request{})
			readRequest(r, &q.Batch[i], true)
		}
	}
	if mask&reqGid != 0 {
		q.Gid = r.Str()
	}
	if mask&reqOrigin != 0 {
		q.Origin = r.Uint64Name()
	}
}

// Response field bits (after the always-present Code byte).
const (
	respMsg = 1 << iota
	respTx
	respMem
	respMems
	respSeq
	respNotice
	respConflict
	respBatch

	// respFields is every bit a field owns; readResponse refuses any
	// other, as readRequest does.
	respFields = respBatch<<1 - 1
)

func appendResponse(dst []byte, t *wire.Names, p *Response) []byte {
	dst = append(dst, byte(p.Code))
	var mask uint64
	if p.Msg != "" {
		mask |= respMsg
	}
	if p.Tx != 0 {
		mask |= respTx
	}
	if !memIsZero(p.Mem) {
		mask |= respMem
	}
	if len(p.Mems) > 0 {
		mask |= respMems
	}
	if p.Seq != 0 {
		mask |= respSeq
	}
	if !noticeIsZero(p.Notice) {
		mask |= respNotice
	}
	if p.Conflict != nil {
		mask |= respConflict
	}
	if len(p.Batch) > 0 {
		mask |= respBatch
	}
	dst = binary.AppendUvarint(dst, mask)
	if mask&respMsg != 0 {
		dst = wire.AppendString(dst, p.Msg)
	}
	if mask&respTx != 0 {
		dst = binary.AppendUvarint(dst, p.Tx)
	}
	if mask&respMem != 0 {
		dst = memento.AppendMemento(dst, t, p.Mem)
	}
	if mask&respMems != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(p.Mems)))
		for i := range p.Mems {
			dst = memento.AppendMemento(dst, t, p.Mems[i])
		}
	}
	if mask&respSeq != 0 {
		dst = binary.AppendUvarint(dst, p.Seq)
	}
	if mask&respNotice != 0 {
		dst = appendNotice(dst, t, p.Notice)
	}
	if mask&respConflict != 0 {
		dst = appendConflict(dst, t, p.Conflict)
	}
	if mask&respBatch != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(p.Batch)))
		for i := range p.Batch {
			dst = appendResponse(dst, t, &p.Batch[i])
		}
	}
	return dst
}

// readResponse decodes one response; like readRequest it refuses a
// batch inside a batch.
func readResponse(r *wire.Reader, p *Response, nested bool) {
	p.Code = ErrCode(r.Byte())
	mask := r.Uvarint()
	if mask&^respFields != 0 || nested && mask&respBatch != 0 {
		r.Fail()
		return
	}
	if mask&respMsg != 0 {
		p.Msg = r.Str()
	}
	if mask&respTx != 0 {
		p.Tx = r.Uvarint()
	}
	if mask&respMem != 0 {
		p.Mem = memento.ReadMemento(r)
	}
	if mask&respMems != 0 {
		n := r.Len()
		p.Mems = make([]memento.Memento, 0, wire.Prealloc(n))
		for i := 0; i < n && !r.Failed(); i++ {
			p.Mems = append(p.Mems, memento.ReadMemento(r))
		}
	}
	if mask&respSeq != 0 {
		p.Seq = r.Uvarint()
	}
	if mask&respNotice != 0 {
		p.Notice = readNotice(r)
	}
	if mask&respConflict != 0 {
		p.Conflict = readConflict(r)
	}
	if mask&respBatch != 0 {
		n := r.Len()
		p.Batch = make([]Response, 0, wire.Prealloc(n))
		for i := 0; i < n && !r.Failed(); i++ {
			p.Batch = append(p.Batch, Response{})
			readResponse(r, &p.Batch[i], true)
		}
	}
}

// Zero checks deciding which fields are omitted. Fields maps use nil-ness
// (not emptiness): WriteDesc.Blind() gives nil a meaning an empty map
// does not have, so the codec preserves the distinction everywhere.

func memIsZero(m memento.Memento) bool {
	return m.Key == (memento.Key{}) && m.Version == 0 && m.Fields == nil
}

func queryIsZero(q memento.Query) bool {
	return q.Table == "" && len(q.Where) == 0
}

func noticeIsZero(n sqlstore.Notice) bool {
	return n.Seq == 0 && len(n.Writes) == 0 &&
		n.CommittedAt.IsZero() && n.OriginTrace == 0
}

func appendReadProof(dst []byte, t *wire.Names, p memento.ReadProof) []byte {
	dst = memento.AppendKey(dst, t, p.Key)
	return binary.AppendUvarint(dst, p.Version)
}

func readReadProof(r *wire.Reader) memento.ReadProof {
	var p memento.ReadProof
	p.Key = memento.ReadKey(r)
	p.Version = r.Uvarint()
	return p
}

func appendWriteDesc(dst []byte, t *wire.Names, w memento.WriteDesc) []byte {
	dst = memento.AppendKey(dst, t, w.Key)
	dst = wire.AppendBool(dst, w.Removed)
	return memento.AppendFields(dst, t, w.After)
}

func readWriteDesc(r *wire.Reader) memento.WriteDesc {
	var w memento.WriteDesc
	w.Key = memento.ReadKey(r)
	w.Removed = r.Bool()
	w.After = memento.ReadFields(r)
	return w
}

func appendCommitSet(dst []byte, t *wire.Names, cs memento.CommitSet) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(cs.Reads)))
	for _, p := range cs.Reads {
		dst = appendReadProof(dst, t, p)
	}
	dst = binary.AppendUvarint(dst, uint64(len(cs.Writes)))
	for i := range cs.Writes {
		dst = memento.AppendMemento(dst, t, cs.Writes[i])
	}
	dst = binary.AppendUvarint(dst, uint64(len(cs.Creates)))
	for i := range cs.Creates {
		dst = memento.AppendMemento(dst, t, cs.Creates[i])
	}
	dst = binary.AppendUvarint(dst, uint64(len(cs.Removes)))
	for _, p := range cs.Removes {
		dst = appendReadProof(dst, t, p)
	}
	return wire.AppendUint64Name(dst, t, cs.Origin)
}

func readCommitSet(r *wire.Reader) memento.CommitSet {
	var cs memento.CommitSet
	if n := r.Len(); n > 0 {
		cs.Reads = make([]memento.ReadProof, 0, wire.Prealloc(n))
		for i := 0; i < n && !r.Failed(); i++ {
			cs.Reads = append(cs.Reads, readReadProof(r))
		}
	}
	if n := r.Len(); n > 0 {
		cs.Writes = make([]memento.Memento, 0, wire.Prealloc(n))
		for i := 0; i < n && !r.Failed(); i++ {
			cs.Writes = append(cs.Writes, memento.ReadUpdate(r))
		}
	}
	if n := r.Len(); n > 0 {
		cs.Creates = make([]memento.Memento, 0, wire.Prealloc(n))
		for i := 0; i < n && !r.Failed(); i++ {
			cs.Creates = append(cs.Creates, memento.ReadMemento(r))
		}
	}
	if n := r.Len(); n > 0 {
		cs.Removes = make([]memento.ReadProof, 0, wire.Prealloc(n))
		for i := 0; i < n && !r.Failed(); i++ {
			cs.Removes = append(cs.Removes, readReadProof(r))
		}
	}
	cs.Origin = r.Uint64Name()
	return cs
}

func appendQuery(dst []byte, t *wire.Names, q memento.Query) []byte {
	dst = wire.AppendName(dst, t, q.Table)
	dst = binary.AppendUvarint(dst, uint64(len(q.Where)))
	for _, p := range q.Where {
		dst = wire.AppendName(dst, t, p.Field)
		dst = memento.AppendValue(dst, p.Value)
	}
	return dst
}

func readQuery(r *wire.Reader) memento.Query {
	var q memento.Query
	q.Table = r.Name()
	if n := r.Len(); n > 0 {
		q.Where = make([]memento.Predicate, 0, wire.Prealloc(n))
		for i := 0; i < n && !r.Failed(); i++ {
			var p memento.Predicate
			p.Field = r.Name()
			p.Value = memento.ReadValue(r)
			q.Where = append(q.Where, p)
		}
	}
	return q
}

func appendNotice(dst []byte, t *wire.Names, n sqlstore.Notice) []byte {
	dst = binary.AppendUvarint(dst, n.Seq)
	dst = binary.AppendUvarint(dst, uint64(len(n.Writes)))
	for i := range n.Writes {
		dst = appendWriteDesc(dst, t, n.Writes[i])
	}
	dst = wire.AppendTime(dst, n.CommittedAt)
	return binary.AppendUvarint(dst, n.OriginTrace)
}

func readNotice(r *wire.Reader) sqlstore.Notice {
	var n sqlstore.Notice
	n.Seq = r.Uvarint()
	if c := r.Len(); c > 0 {
		n.Writes = make([]memento.WriteDesc, 0, wire.Prealloc(c))
		for i := 0; i < c && !r.Failed(); i++ {
			n.Writes = append(n.Writes, readWriteDesc(r))
		}
	}
	n.CommittedAt = r.Time()
	n.OriginTrace = r.Uvarint()
	return n
}

func appendConflict(dst []byte, t *wire.Names, ci *ConflictInfo) []byte {
	dst = memento.AppendKey(dst, t, ci.Key)
	dst = binary.AppendUvarint(dst, ci.Expected)
	dst = binary.AppendUvarint(dst, ci.Actual)
	return binary.AppendUvarint(dst, ci.WinnerTrace)
}

func readConflict(r *wire.Reader) *ConflictInfo {
	ci := new(ConflictInfo)
	ci.Key = memento.ReadKey(r)
	ci.Expected = r.Uvarint()
	ci.Actual = r.Uvarint()
	ci.WinnerTrace = r.Uvarint()
	return ci
}
