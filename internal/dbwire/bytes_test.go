package dbwire

import (
	"context"
	"maps"
	"strconv"
	"testing"
	"time"

	"edgeejb/internal/memento"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
	"edgeejb/internal/wire"
)

// opBytes is one op label's traffic as the client's transport counts
// it, frame length prefixes included.
type opBytes struct {
	Count, Sent, Received uint64
}

// seedPinnedRows seeds t/1 to t/4 with v = 10, 20, 20, 20, so that
// pinnedFinder selects t/2, t/3 and t/4. Every v is a one-byte varint,
// so each row, reply and notice image is the same size whatever its v.
// The rows are one Seed, so one commit: all four are at version 1.
func seedPinnedRows(store *sqlstore.Store) {
	var rows []memento.Memento
	for i, v := range []int64{10, 20, 20, 20} {
		rows = append(rows, memento.Memento{Key: memento.Key{Table: "t", ID: strconv.Itoa(i + 1)}, Fields: memento.Fields{"v": memento.Int(v)}})
	}
	store.Seed(rows...)
}

// pinnedFinder is the finder both pins send: one equality, encoded as
// its field "v" (2 bytes) and its value Int(20) (2 bytes).
var pinnedFinder = memento.Query{Table: "t", Where: []memento.Predicate{memento.Where("v", memento.Int(20))}}

// pinnedStmts is one statement of each of the eleven kinds but Abort,
// in an order whose every statement succeeds on the rows stmtBytes
// seeds: reads first, then writes, then Commit.
func pinnedStmts() []storeapi.Stmt {
	row := func(id string, v uint64, n int64) memento.Memento {
		return memento.Memento{
			Key:     memento.Key{Table: "t", ID: id},
			Version: v,
			Fields:  memento.Fields{"v": memento.Int(n), "s": memento.String("pinned")},
		}
	}
	return []storeapi.Stmt{
		{Kind: storeapi.StmtGet, Table: "t", ID: "1"},
		{Kind: storeapi.StmtGetForUpdate, Table: "t", ID: "2"},
		{Kind: storeapi.StmtQuery, Query: pinnedFinder},
		{Kind: storeapi.StmtPut, Mem: row("1", 0, 11)},
		{Kind: storeapi.StmtInsert, Mem: row("9", 0, 90)},
		{Kind: storeapi.StmtDelete, Table: "t", ID: "3"},
		{Kind: storeapi.StmtCheckVersion, Key: memento.Key{Table: "t", ID: "2"}, Version: 1},
		{Kind: storeapi.StmtCheckedPut, Mem: row("2", 1, 21)},
		{Kind: storeapi.StmtCheckedDelete, Key: memento.Key{Table: "t", ID: "4"}, Version: 1},
		{Kind: storeapi.StmtCommit},
	}
}

// stmtBytes drives the eleven statement kinds over a fresh loopback
// pair: pinnedStmts in one transaction, then Abort in a second, either
// one round trip per statement or each transaction's statements as one
// OpBatch. It returns the client's per-op counters.
func stmtBytes(t *testing.T, batched bool) map[string]opBytes {
	t.Helper()
	store, c := newPair(t)
	seedPinnedRows(store)
	ctx := context.Background()
	for _, stmts := range [][]storeapi.Stmt{pinnedStmts(), {{Kind: storeapi.StmtAbort}}} {
		txn, err := c.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		exec := storeapi.ExecSerial
		if batched {
			exec = storeapi.ExecBatch
		}
		results, err := exec(ctx, txn, stmts)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("statement %d (kind %d): %v", i, stmts[i].Kind, r.Err)
			}
		}
	}
	out := make(map[string]opBytes)
	for label, s := range c.WireStats().Ops {
		out[label] = opBytes{Count: s.Count, Sent: s.BytesSent, Received: s.BytesReceived}
	}
	return out
}

// TestStatementWireBytes pins what every statement kind costs on the
// wire, sent serially and inside an OpBatch: any change to an op code,
// a field, the sub-request encoding or a reply moves one of these.
func TestStatementWireBytes(t *testing.T) {
	// A change to any of these numbers is a protocol change, not a
	// refactor: it moves bytes on the slow path Figure 8 weighs. A
	// predicate is its field and value with no operator byte: Query
	// sends 16 = 4 length prefix + 2 frame header + 1 op + 1 field mask
	// + 1 tx + 2 table + 1 predicate count + 4 predicate; its 42
	// received are the three rows pinnedFinder selects.
	// TestCachePathWireBytes's AutoQuery is the same less the tx byte.
	// Commit's 9 received = 8 + the commit's Seq, one byte (the seed was
	// commit 1, this is 2); a commit that wrote nothing would send no Seq.
	want := map[bool]map[string]opBytes{
		false: {
			"Begin":         {2, 16, 18},
			"Get":           {1, 13, 19},
			"GetForUpdate":  {1, 13, 19},
			"Query":         {1, 16, 42},
			"Put":           {1, 30, 8},
			"Insert":        {1, 31, 8},
			"Delete":        {1, 13, 8},
			"CheckVersion":  {1, 14, 8},
			"CheckedPut":    {1, 30, 8},
			"CheckedDelete": {1, 14, 8},
			"Commit":        {1, 9, 9},
			"Abort":         {1, 9, 8},
		},
		true: {
			"Begin": {2, 16, 18},
			"Batch": {2, 137, 99},
		},
	}
	for _, batched := range []bool{false, true} {
		got := stmtBytes(t, batched)
		if len(got) != len(want[batched]) {
			t.Errorf("batched=%v: ops %v, want %v", batched, got, want[batched])
		}
		for label, w := range want[batched] {
			if g := got[label]; g != w {
				t.Errorf("batched=%v: %s = %+v, want %+v", batched, label, g, w)
			}
		}
	}

	// An edge cache begins under its origin: a second mask byte (bit 11)
	// and the origin's 9 bytes on top of a plain Begin's 8.
	_, c := newPair(t)
	ctx := context.Background()
	txn, err := c.Begin(sqlstore.OriginContext(ctx, 1<<62|5))
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if o := c.WireStats().Ops["Begin"]; o.Count != 1 || o.BytesSent != 8+1+9 || o.BytesReceived != 9 {
		t.Errorf("Begin under an origin = %+v, want 1 sent as 18 bytes, 9 received", o)
	}
}

// cachePathBytes drives the ops the cached architectures spend on the
// slow hop over a fresh loopback pair with fixed rows: a subscription
// under sub, the miss fetches, then the commit-set and two-phase
// commits, every set under origin. It returns the client's transport
// counters, once every notice the store sent has arrived.
func cachePathBytes(t *testing.T, sub context.Context, origin uint64) wire.Stats {
	t.Helper()
	store, c := newPair(t)
	seedPinnedRows(store)
	ctx := context.Background()
	notices, cancel, err := c.Subscribe(sub)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	write := func(id string, v uint64, n int64) memento.Memento {
		return memento.Memento{Key: memento.Key{Table: "t", ID: id}, Version: v,
			Fields: memento.Fields{"v": memento.Int(n), "s": memento.String("pinned")}}
	}

	if _, err := c.AutoGet(ctx, "t", "1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AutoQuery(ctx, pinnedFinder); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyCommitSet(ctx, memento.CommitSet{
		Reads:  []memento.ReadProof{{Key: memento.Key{Table: "t", ID: "1"}, Version: 1}},
		Writes: []memento.Memento{write("2", 1, 21)},
		Origin: origin,
	}); err != nil {
		t.Fatal(err)
	}
	results, err := c.ApplyCommitSets(ctx, []memento.CommitSet{
		{Writes: []memento.Memento{write("3", 1, 31)}, Origin: origin},
		{Creates: []memento.Memento{write("9", 0, 90)}, Origin: origin},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("set %d: %v", i, r.Err)
		}
	}
	if err := c.Prepare(ctx, "g1", memento.CommitSet{Writes: []memento.Memento{write("4", 1, 41)}, Origin: origin}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CommitPrepared(ctx, "g1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Prepare(ctx, "g2", memento.CommitSet{Removes: []memento.ReadProof{{Key: memento.Key{Table: "t", ID: "1"}, Version: 1}}, Origin: origin}); err != nil {
		t.Fatal(err)
	}
	if err := c.AbortPrepared(ctx, "g2"); err != nil {
		t.Fatal(err)
	}
	// Four commits wrote. The store sends their notices before the
	// commits answer, and the transport counts a push before it is
	// delivered.
	for i := uint64(0); i < store.Stats().NoticesSent; i++ {
		select {
		case <-notices:
		case <-time.After(5 * time.Second):
			t.Fatalf("notice %d not pushed", i+1)
		}
	}
	return c.WireStats()
}

// TestCachePathWireBytes pins the ops the cached architectures spend on
// the slow hop — the miss fetches, the commit-set and two-phase commits
// and the invalidation push. The transport counts the notices pushed on
// the subscription under "push". A subscriber under no origin is pushed
// all four commits' notices; one that shares the commits' origin, the
// committing edge's own subscription, is pushed nothing; a keys-only
// subscriber under another origin, an edge with no finder cache, is
// pushed all four with their field images cut.
func TestCachePathWireBytes(t *testing.T) {
	// As in TestStatementWireBytes, a moved number is a protocol change.
	// Every commit set ends in its origin as a uvarint: 1 byte for none,
	// 9 for an edge's (bit 62 set, bit 63 clear). A subscription under
	// an origin adds the origin's 9 bytes and a second mask byte (bit 11);
	// asking for keys only is mask bit 12 and nothing else, so it adds
	// no byte there.
	// A commit reply is its commit's number and nothing else: 9 = 4
	// length prefix + 2 frame header + 1 code + 1 field mask + 1 Seq (the
	// seed was commit 1, so these are 2 to 5). ApplyCommitSets' 16 = 8 + 1
	// batch count + 2 × (code, mask, Seq). The sender rebuilds each put
	// key's version from the Seq, so no key→version map rides back.
	//
	// A descriptor is its key, a 1-byte Removed flag and its After
	// field map; none of these four commits removes a row. The push
	// carried a Before map in the flag's place until notices lost their
	// before-images: an update's Before {v} was 6 bytes (presence, count,
	// "v" 2, Int 2), so each of the three updates (t/2, t/3, t/4) is 5
	// bytes shorter, and the create of t/9 swaps its 1-byte nil Before
	// marker for the flag: 180 − 3×5 = 165 bytes.
	// A keys-only push sends each descriptor as its key, the flag and a
	// nil After marker, 1 byte in place of the field map. An update's
	// After {v, s: "pinned"} is 16 bytes (presence, count, "v" 2, Int 2,
	// "s" 2, String 8), so 15 are saved on each update; the create's
	// After is 17 bytes, as Int(90) zigzags to a 2-byte varint, so it
	// saves 16. The four notices are 165 − 3×15 − 16 = 104 bytes.
	const origin, other = 1<<62 | 5, 1<<62 | 6
	full := map[string]opBytes{
		"AutoGet":         {1, 12, 19},
		"AutoQuery":       {1, 15, 42},
		"ApplyCommitSet":  {1, 41, 9},
		"ApplyCommitSets": {1, 63, 16},
		"Prepare":         {2, 61, 16},
		"CommitPrepared":  {1, 12, 9},
		"AbortPrepared":   {1, 12, 8},
		"Subscribe":       {1, 8, 8},
		"push":            {0, 0, 165},
	}
	keysOnly := maps.Clone(full)
	keysOnly["Subscribe"] = opBytes{1, 8 + 1 + 9, 8}
	keysOnly["push"] = opBytes{0, 0, 165 - 3*15 - 16}
	ctx := context.Background()
	for _, c := range []struct {
		name   string
		sub    context.Context
		origin uint64
		pushes uint64
		want   map[string]opBytes
	}{
		{"no origin", ctx, 0, 4, full},
		{"own origin", sqlstore.OriginContext(ctx, origin), origin, 0, map[string]opBytes{
			"AutoGet":         {1, 12, 19},
			"AutoQuery":       {1, 15, 42},
			"ApplyCommitSet":  {1, 41 + 8, 9},
			"ApplyCommitSets": {1, 63 + 2*8, 16},
			"Prepare":         {2, 61 + 2*8, 16},
			"CommitPrepared":  {1, 12, 9},
			"AbortPrepared":   {1, 12, 8},
			"Subscribe":       {1, 8 + 1 + 9, 8},
		}},
		{"keys only", sqlstore.KeysOnlyContext(sqlstore.OriginContext(ctx, other), true), 0, 4, keysOnly},
	} {
		s := cachePathBytes(t, c.sub, c.origin)
		if s.Pushes != c.pushes {
			t.Errorf("%s: pushes = %d, want %d", c.name, s.Pushes, c.pushes)
		}
		if len(s.Ops) != len(c.want) {
			t.Errorf("%s: ops %v, want %v", c.name, s.Ops, c.want)
		}
		for label, w := range c.want {
			op := s.Ops[label]
			if g := (opBytes{Count: op.Count, Sent: op.BytesSent, Received: op.BytesReceived}); g != w {
				t.Errorf("%s: %s = %+v, want %+v", c.name, label, g, w)
			}
		}
	}
}
