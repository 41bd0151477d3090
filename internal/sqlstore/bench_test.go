package sqlstore_test

import (
	"context"
	"fmt"
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
