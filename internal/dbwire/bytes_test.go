package dbwire

import (
	"context"
	"maps"
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

// pinnedIDs names the rows of one pinned exchange: the four
// seedPinnedRows seeds, then the one the exchange creates. A repeat of
// the exchange on the same connections takes the second set: it sends
// the same names, over name tables the first run filled, and the same
// number of bytes besides. Every ID is one byte.
var pinnedIDs = [2][5]string{{"1", "2", "3", "4", "9"}, {"5", "6", "7", "8", "0"}}

// seedPinnedRows seeds the first four of ids with v = 10, 20, 20, 20,
// so that pinnedFinder selects the last three, and returns their
// version: the rows are one Seed, so one commit (1 on a fresh store).
// Every v is a one-byte varint, so each row, reply and notice image is
// the same size whatever its v. A pinned exchange leaves no row at
// v = 20, so the finder of a repeat selects that repeat's rows alone.
func seedPinnedRows(t *testing.T, store *sqlstore.Store, ids [5]string) uint64 {
	t.Helper()
	var rows []memento.Memento
	for i, v := range []int64{10, 20, 20, 20} {
		rows = append(rows, memento.Memento{Key: memento.Key{Table: "t", ID: ids[i]}, Fields: memento.Fields{"v": memento.Int(v)}})
	}
	store.Seed(rows...)
	version, err := store.CurrentVersion(rows[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	return version
}

// pinnedFinder is the finder both pins send: one equality on the field
// "v" with the value Int(20) (2 bytes).
var pinnedFinder = memento.Query{Table: "t", Where: []memento.Predicate{memento.Where("v", memento.Int(20))}}

// pinnedRow is a row image a pinned exchange writes: fields v and s.
func pinnedRow(id string, v uint64, n int64) memento.Memento {
	return memento.Memento{
		Key:     memento.Key{Table: "t", ID: id},
		Version: v,
		Fields:  memento.Fields{"v": memento.Int(n), "s": memento.String("pinned")},
	}
}

// pinnedStmts is one statement of each of the eleven kinds but Abort,
// in an order whose every statement succeeds on the rows
// seedPinnedRows seeded at version: reads first, then writes, then
// Commit.
func pinnedStmts(ids [5]string, version uint64) []storeapi.Stmt {
	return []storeapi.Stmt{
		{Kind: storeapi.StmtGet, Table: "t", ID: ids[0]},
		{Kind: storeapi.StmtGetForUpdate, Table: "t", ID: ids[1]},
		{Kind: storeapi.StmtQuery, Query: pinnedFinder},
		{Kind: storeapi.StmtPut, Mem: pinnedRow(ids[0], 0, 11)},
		{Kind: storeapi.StmtInsert, Mem: pinnedRow(ids[4], 0, 90)},
		{Kind: storeapi.StmtDelete, Table: "t", ID: ids[2]},
		{Kind: storeapi.StmtCheckVersion, Key: memento.Key{Table: "t", ID: ids[1]}, Version: version},
		{Kind: storeapi.StmtCheckedPut, Mem: pinnedRow(ids[1], version, 21)},
		{Kind: storeapi.StmtCheckedDelete, Key: memento.Key{Table: "t", ID: ids[3]}, Version: version},
		{Kind: storeapi.StmtCommit},
	}
}

// opsOf is a client's per-op counters.
func opsOf(s wire.Stats) map[string]opBytes {
	out := make(map[string]opBytes)
	for label, o := range s.Ops {
		out[label] = opBytes{Count: o.Count, Sent: o.BytesSent, Received: o.BytesReceived}
	}
	return out
}

// since is the traffic of after that is not already in before.
func since(after, before map[string]opBytes) map[string]opBytes {
	out := make(map[string]opBytes)
	for label, a := range after {
		b := before[label]
		if d := (opBytes{a.Count - b.Count, a.Sent - b.Sent, a.Received - b.Received}); d != (opBytes{}) {
			out[label] = d
		}
	}
	return out
}

// stmtBytes drives the eleven statement kinds over a fresh loopback
// pair: pinnedStmts in one transaction, then Abort in a second, either
// one round trip per statement or each transaction's statements as one
// OpBatch. It does so twice, the second time on the second set of
// pinnedIDs, and returns the client's per-op counters for each run:
// cold, the first use of a connection, and warm, its repeat.
func stmtBytes(t *testing.T, batched bool) (cold, warm map[string]opBytes) {
	t.Helper()
	store, c := newPair(t)
	ctx := context.Background()
	exec := storeapi.ExecSerial
	if batched {
		exec = storeapi.ExecBatch
	}
	for run, ids := range pinnedIDs {
		version := seedPinnedRows(t, store, ids)
		for _, stmts := range [][]storeapi.Stmt{pinnedStmts(ids, version), {{Kind: storeapi.StmtAbort}}} {
			txn, err := c.Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			results, err := exec(ctx, txn, stmts)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("run %d, statement %d (kind %d): %v", run, i, stmts[i].Kind, r.Err)
				}
			}
		}
		if run == 0 {
			cold = opsOf(c.WireStats())
		} else {
			warm = since(opsOf(c.WireStats()), cold)
		}
	}
	return cold, warm
}

// TestStatementWireBytes pins what every statement kind costs on the
// wire, sent serially and inside an OpBatch, the first time on a
// connection (cold) and repeated on it (warm): any change to an op
// code, a field, the sub-request encoding, the name table or a reply
// moves one of these.
func TestStatementWireBytes(t *testing.T) {
	// A change to any of these numbers is a protocol change, not a
	// refactor: it moves bytes on the slow path Figure 8 weighs.
	//
	// Every frame opens with its length as a uvarint: 1 byte for each
	// frame here, all under 128 bytes.
	//
	// A table or field name crosses each direction of a connection once
	// as a literal, a 0 marker, a length byte and its bytes, and after
	// that as its one-byte index. Every name here is one byte ("t", "v"
	// and "s"): 3 bytes as a literal, 1 as an index. Client to server,
	// "t" is first sent by Get, "v" by Query and "s" by Put; server to
	// client, Get's reply brings "t" and "v".
	//
	// Get sends 11 = 1 length prefix + 2 frame header + 1 op + 1 field
	// mask + 1 tx + 3 table "t" + 2 ID, and receives 18 = 1 + 2 + 1 code
	// + 1 mask + the row: key (3 "t" + 2 ID), 1 version, fields (1
	// presence, 1 count, 3 "v", 2 Int). GetForUpdate is the same with
	// both "t"s and the "v" as indices: 9 sent, 14 received. A
	// predicate is its field and value with no operator byte: Query
	// sends 13 = 1 + 2 + 1 op + 1 mask + 1 tx + 1 "t" + 1 predicate
	// count + 3 "v" + 2 Int(20); its 33 received are 5 + 1 count + the
	// three rows pinnedFinder selects, 9 bytes each with every name an
	// index. Put's row sends "t" and "v" as indices and "s" as a literal
	// (26); Insert and CheckedPut send all three as indices.
	// TestCachePathWireBytes's AutoQuery is Query less the tx byte.
	// Commit's 6 received = 5 + the commit's Seq, one byte (the seed was
	// commit 1, this is 2); a commit that wrote nothing would send no Seq.
	//
	// Warm, every name is an index: Get sends 2 and receives 4 bytes
	// fewer (its "t", and the reply's "t" and "v"), Query sends 2 fewer
	// ("v") and Put 2 fewer ("s"). A batch carries the same statements
	// and replies: its 16 names sent cost 3 × 3 + 13 × 1 cold and 16
	// warm, and its 10 received 2 × 3 + 8 × 1 cold and 10 warm.
	cold := map[bool]map[string]opBytes{
		false: {
			"Begin":         {2, 10, 12},
			"Get":           {1, 11, 18},
			"GetForUpdate":  {1, 9, 14},
			"Query":         {1, 13, 33},
			"Put":           {1, 26, 5},
			"Insert":        {1, 25, 5},
			"Delete":        {1, 9, 5},
			"CheckVersion":  {1, 10, 5},
			"CheckedPut":    {1, 24, 5},
			"CheckedDelete": {1, 10, 5},
			"Commit":        {1, 6, 6},
			"Abort":         {1, 6, 5},
		},
		true: {
			"Begin": {2, 10, 12},
			"Batch": {2, 121, 87},
		},
	}
	warm := map[bool]map[string]opBytes{
		false: maps.Clone(cold[false]),
		true: {
			"Begin": {2, 10, 12},
			"Batch": {2, 121 - 2*3, 87 - 2*2},
		},
	}
	warm[false]["Get"] = opBytes{1, 11 - 2, 18 - 4}
	warm[false]["Query"] = opBytes{1, 13 - 2, 33}
	warm[false]["Put"] = opBytes{1, 26 - 2, 5}
	for _, batched := range []bool{false, true} {
		gotCold, gotWarm := stmtBytes(t, batched)
		for _, run := range []struct {
			name      string
			got, want map[string]opBytes
		}{{"cold", gotCold, cold[batched]}, {"warm", gotWarm, warm[batched]}} {
			if len(run.got) != len(run.want) {
				t.Errorf("batched=%v, %s: ops %v, want %v", batched, run.name, run.got, run.want)
			}
			for label, w := range run.want {
				if g := run.got[label]; g != w {
					t.Errorf("batched=%v, %s: %s = %+v, want %+v", batched, run.name, label, g, w)
				}
			}
		}
	}

	// An edge cache begins under its origin: a second mask byte (bit 11)
	// and the origin on top of a plain Begin's 5. The origin is a name,
	// its eight bytes: 10 as a literal the first time it crosses the
	// connection, its one-byte index after that.
	_, c := newPair(t)
	ctx := context.Background()
	for range 2 {
		txn, err := c.Begin(sqlstore.OriginContext(ctx, 1<<62|5))
		if err != nil {
			t.Fatal(err)
		}
		if err := txn.Abort(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if o := c.WireStats().Ops["Begin"]; o.Count != 2 || o.BytesSent != (5+1+10)+(5+1+1) || o.BytesReceived != 2*6 {
		t.Errorf("two Begins under an origin = %+v, want them sent as 16 and 7 bytes, 6 received each", o)
	}
}

// cachePathBytes drives the ops the cached architectures spend on the
// slow hop over a fresh loopback pair with fixed rows: a subscription
// under sub, the miss fetches, then the commit-set and two-phase
// commits, every set under origin. It does so twice, the second time on
// the second set of pinnedIDs over the same connections, and returns
// the client's transport counters for each run, cold and warm, once
// every notice the store sent has arrived.
func cachePathBytes(t *testing.T, sub context.Context, origin uint64) (cold, warm wire.Stats) {
	t.Helper()
	store, c := newPair(t)
	ctx := context.Background()
	notices, cancel, err := c.Subscribe(sub)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	heard := uint64(0)
	for run, ids := range pinnedIDs {
		version := seedPinnedRows(t, store, ids)
		if _, err := c.AutoGet(ctx, "t", ids[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AutoQuery(ctx, pinnedFinder); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ApplyCommitSet(ctx, memento.CommitSet{
			Reads:  []memento.ReadProof{{Key: memento.Key{Table: "t", ID: ids[0]}, Version: version}},
			Writes: []memento.Memento{pinnedRow(ids[1], version, 21)},
			Origin: origin,
		}); err != nil {
			t.Fatal(err)
		}
		for i, cs := range []memento.CommitSet{
			{Writes: []memento.Memento{pinnedRow(ids[2], version, 31)}, Origin: origin},
			{Creates: []memento.Memento{pinnedRow(ids[4], 0, 90)}, Origin: origin},
		} {
			if _, err := c.ApplyCommitSet(ctx, cs); err != nil {
				t.Fatalf("run %d, set %d: %v", run, i, err)
			}
		}
		if err := c.Prepare(ctx, "g1", memento.CommitSet{Writes: []memento.Memento{pinnedRow(ids[3], version, 41)}, Origin: origin}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.CommitPrepared(ctx, "g1"); err != nil {
			t.Fatal(err)
		}
		if err := c.Prepare(ctx, "g2", memento.CommitSet{Removes: []memento.ReadProof{{Key: memento.Key{Table: "t", ID: ids[0]}, Version: version}}, Origin: origin}); err != nil {
			t.Fatal(err)
		}
		if err := c.AbortPrepared(ctx, "g2"); err != nil {
			t.Fatal(err)
		}
		// Four commits wrote. The store sends their notices before the
		// commits answer, and the transport counts a push before it is
		// delivered.
		for ; heard < store.Stats().NoticesSent; heard++ {
			select {
			case <-notices:
			case <-time.After(5 * time.Second):
				t.Fatalf("run %d: notice %d not pushed", run, heard+1)
			}
		}
		if run == 0 {
			cold = c.WireStats()
		} else {
			warm = c.WireStats()
		}
	}
	return cold, warm
}

// TestCachePathWireBytes pins the ops the cached architectures spend on
// the slow hop — the miss fetches, the commit-set and two-phase commits
// and the invalidation push — the first time on their connections
// (cold) and repeated on them (warm). The transport counts the notices
// pushed on the subscription under "push". A subscriber under no origin
// is pushed all four commits' notices; one that shares the commits'
// origin, the committing edge's own subscription, is pushed nothing.
func TestCachePathWireBytes(t *testing.T) {
	// As in TestStatementWireBytes, a moved number is a protocol change,
	// every frame's length prefix here is 1 byte, and a one-byte name
	// costs 3 bytes the first time it crosses a direction of a
	// connection and 1 after that. One-shot calls share one connection;
	// the subscription has its own.
	//
	// Every commit set ends in its origin, and a subscription under an
	// origin carries it after a second mask byte (bit 11). An origin is
	// a name, its eight bytes, whether it is an edge's or zero (none):
	// 10 bytes the first time it crosses a connection, 1 after that.
	// A commit reply is its commit's number and nothing else: 6 = 1
	// length prefix + 2 frame header + 1 code + 1 field mask + 1 Seq (the
	// seed was commit 1, so these are 2 to 5). The sender rebuilds each
	// put key's version from the Seq, so no key→version map rides back.
	//
	// Cold: AutoGet sends "t" first (10) and its reply "t" and "v" (18);
	// AutoQuery sends "v" as a literal, its table as an index (12), and
	// its three rows come back with every name an index (33).
	// The first ApplyCommitSet's 44 = 1 + 2 + 1 op + 2 mask (bit 7) +
	// the set: 1 reads count, a proof (1 "t", 2 ID, 1 version), 1
	// writes count, a row (1 "t", 2 ID, 1 version, 1 presence, 1 count,
	// 1 "v", 2 Int, 3 "s", 8 String), 1 creates count, 1 removes count,
	// 10 origin. The next two, an update and a create, name only what is
	// already in the table, the origin included: 6 of header each and
	// 47 of sets between them, so the three send 44 + 59. The two
	// Prepares (50, the second carrying one remove proof) name only what
	// is in the table too.
	//
	// A notice is 5 + 1 Seq + 1 count + its descriptor + 9 CommittedAt +
	// 1 OriginTrace, and a descriptor is its key, a 1-byte Removed flag
	// and its After field map; none of these commits removes a row. The
	// first notice names "t", "v" and "s" as literals: its descriptor is
	// 3 + 2 + 1 + 1 presence + 1 count + 3 + 2 Int + 3 + 8 String = 24,
	// and the notice 41. Each later update's descriptor is 6 bytes
	// shorter, 18, and the create's 19, as Int(90) zigzags to a 2-byte
	// varint: 41 + 35 + 36 + 35 = 147.
	//
	// Warm, every name is an index, 2 bytes less than a literal: AutoGet
	// sends 2 and receives 4 fewer, AutoQuery sends 2 fewer ("v") and
	// ApplyCommitSet 11 fewer ("s", and the origin's 9); the first
	// notice is 6 bytes shorter. No second Subscribe is sent.
	const origin = 1<<62 | 5
	full := map[string]opBytes{
		"AutoGet":        {1, 10, 18},
		"AutoQuery":      {1, 12, 33},
		"ApplyCommitSet": {3, 44 + 59, 18},
		"Prepare":        {2, 50, 10},
		"CommitPrepared": {1, 9, 6},
		"AbortPrepared":  {1, 9, 5},
		"Subscribe":      {1, 5, 5},
		"push":           {0, 0, 147},
	}
	// An edge's own origin costs what no origin does; only its
	// subscription grows.
	own := maps.Clone(full)
	delete(own, "push")
	own["Subscribe"] = opBytes{1, 5 + 1 + 10, 5}
	// warmOf is the repeat of a cold run: every name an index, and no
	// Subscribe.
	warmOf := func(cold map[string]opBytes, pushSaved uint64) map[string]opBytes {
		w := maps.Clone(cold)
		delete(w, "Subscribe")
		for label, d := range map[string]opBytes{"AutoGet": {0, 2, 4}, "AutoQuery": {0, 2, 0}, "ApplyCommitSet": {0, 2 + 9, 0}} {
			o := w[label]
			w[label] = opBytes{o.Count, o.Sent - d.Sent, o.Received - d.Received}
		}
		if p, ok := w["push"]; ok {
			w["push"] = opBytes{0, 0, p.Received - pushSaved}
		}
		return w
	}
	ctx := context.Background()
	for _, c := range []struct {
		name       string
		sub        context.Context
		origin     uint64
		pushes     uint64
		cold, warm map[string]opBytes
	}{
		{"no origin", ctx, 0, 4, full, warmOf(full, 6)},
		{"own origin", sqlstore.OriginContext(ctx, origin), origin, 0, own, warmOf(own, 0)},
	} {
		cold, warm := cachePathBytes(t, c.sub, c.origin)
		coldOps := opsOf(cold)
		for _, run := range []struct {
			name      string
			pushes    uint64
			got, want map[string]opBytes
		}{
			{"cold", cold.Pushes, coldOps, c.cold},
			{"warm", warm.Pushes - cold.Pushes, since(opsOf(warm), coldOps), c.warm},
		} {
			if run.pushes != c.pushes {
				t.Errorf("%s, %s: pushes = %d, want %d", c.name, run.name, run.pushes, c.pushes)
			}
			if len(run.got) != len(run.want) {
				t.Errorf("%s, %s: ops %v, want %v", c.name, run.name, run.got, run.want)
			}
			for label, w := range run.want {
				if g := run.got[label]; g != w {
					t.Errorf("%s, %s: %s = %+v, want %+v", c.name, run.name, label, g, w)
				}
			}
		}
	}
}
