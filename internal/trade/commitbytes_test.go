package trade

import (
	"context"
	"testing"

	"edgeejb/internal/memento"
)

// BenchmarkUpdateCommitBytes is one Account balance update at an
// ES/RBES edge whose cache holds the account, sent over a warm
// connection to the back-end: the update's commit set is the one
// message it exchanges. It reports bytes/op, what that commit puts on
// the slow hop both ways, which CI holds exact. The count is taken of
// the second update, after the first fetched the account and filled the
// connection's name tables; the loop's own updates would add the bytes
// their growing request IDs and versions take as varints.
//
// The update ships the one cell it changed (memento.Memento.Since):
// the request is 1 length prefix + 2 frame header + 1 op + 2 field mask
// + the set: 1 reads count, 1 writes count, the write (1 table, 6 ID
// "uid-1", 1 version, 1 presence, 1 count, 1 "balance", 9 Float), 1
// creates count, 1 removes count and 1 origin, 31 bytes; the reply is
// 1 + 2 + 1 code + 1 mask + 1 Seq, 6 bytes: 37. Shipped whole, the
// write would carry three more cells, 16 bytes: openBalance's name and
// Float (10), loginCount's name and Int (3), and the empty lastLogin's
// name, kind and length (3).
func BenchmarkUpdateCommitBytes(b *testing.B) {
	e := newRTEnv(b, "sli-split")
	ctx := context.Background()
	key := memento.Key{Table: TableAccount, ID: UserID(1)}
	update := func() {
		dt, err := e.mgr.Begin(ctx)
		if err != nil {
			b.Fatal(err)
		}
		m, err := dt.Load(ctx, key)
		if err != nil {
			b.Fatal(err)
		}
		var a Account
		if err := a.LoadMemento(m); err != nil {
			b.Fatal(err)
		}
		a.Balance++
		if err := dt.Store(ctx, a.ToMemento()); err != nil {
			b.Fatal(err)
		}
		if err := dt.Commit(ctx); err != nil {
			b.Fatal(err)
		}
	}
	update()
	before := e.client.WireStats()
	update()
	traffic := e.client.WireStats().Sub(before)
	if traffic.RoundTrips != 1 {
		b.Fatalf("a warm update took %d round trips, want its one commit", traffic.RoundTrips)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		update()
	}
	b.ReportMetric(float64(traffic.Bytes()), "bytes/op")
}
