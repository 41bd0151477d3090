package slicache_test

import (
	"runtime"
	"testing"

	"edgeejb/internal/slicache"
	"edgeejb/internal/trade"
)

// BenchmarkCommonStoreFootprint is the live heap an edge's common store
// holds per cached memento, filled with a 2,000-user Trade population
// (100 symbols, 4 holdings per user, 14,100 rows: rbes-wan's), as the
// heap after two GCs less the heap before the rows were built. The rows
// are dropped once they are in, as a decoded reply is once the store
// has it, so the strings the store keeps count. It also reports the
// store's own estimate (CommonStoreStats.Bytes) per entry.
func BenchmarkCommonStoreFootprint(b *testing.B) {
	cfg := trade.PopulateConfig{Seed: 1, Users: 2000, Symbols: 100, HoldingsPerUser: 4}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var total, estimated float64
	var entries int
	for i := 0; i < b.N; i++ {
		before := heap()
		c := slicache.NewCommonStore()
		for _, m := range trade.PopulationRows(cfg) {
			c.Put(m)
		}
		entries = c.Len()
		total += float64(heap()) - float64(before)
		estimated += float64(c.Stats().Bytes)
		runtime.KeepAlive(c)
	}
	b.ReportMetric(total/float64(b.N)/float64(entries), "B/entry")
	b.ReportMetric(estimated/float64(b.N)/float64(entries), "est_B/entry")
}
