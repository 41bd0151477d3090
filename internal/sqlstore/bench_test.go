package sqlstore_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"edgeejb/internal/sqlstore"
	"edgeejb/internal/trade"
)

// BenchmarkIndexedQuery is one HoldingsByAccount finder per transaction
// (Begin, Query, Commit) against an index on holding.accountID over 50
// users with 4 holdings each: the store's side of every portfolio page.
func BenchmarkIndexedQuery(b *testing.B) {
	s := sqlstore.New()
	defer s.Close()
	if err := s.CreateIndex(trade.TableHolding, "accountID"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		s.Seed((&trade.Holding{
			HoldingID: fmt.Sprintf("h-%03d", i), AccountID: trade.UserID(i % 50), Symbol: trade.SymbolID(i % 20),
			Quantity: 10, PurchasePrice: 25,
		}).ToMemento())
	}
	ctx, q := context.Background(), trade.HoldingsByAccount(trade.UserID(7))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx, err := s.Begin(ctx)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := tx.Query(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("finder returned %d rows, want 4", len(rows))
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeedFootprint is the live heap a seeded store holds per row:
// the population of a 2,000-user Trade database (100 symbols, 4
// holdings per user, 14,100 rows) with the holding.accountID index, as
// the heap after two GCs less the heap before the store was built. The
// input rows stay live throughout, so only what the store keeps counts.
func BenchmarkSeedFootprint(b *testing.B) {
	rows := trade.PopulationRows(trade.PopulateConfig{Seed: 1, Users: 2000, Symbols: 100, HoldingsPerUser: 4})
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var total float64
	for i := 0; i < b.N; i++ {
		before := heap()
		s := sqlstore.New()
		if err := s.CreateIndex(trade.TableHolding, "accountID"); err != nil {
			b.Fatal(err)
		}
		s.Seed(rows...)
		total += float64(heap()) - float64(before)
		runtime.KeepAlive(s)
		s.Close()
	}
	runtime.KeepAlive(rows)
	b.ReportMetric(total/float64(b.N)/float64(len(rows)), "B/row")
}
