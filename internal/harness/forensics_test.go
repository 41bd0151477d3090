package harness

import (
	"strings"
	"testing"
	"time"

	"edgeejb/internal/obs"
)

func forensicsFixture() Sweep {
	return Sweep{
		Pair: Pair{ESRBES, AlgCachedEJB},
		Points: []Point{{Step: DelaySteps([]time.Duration{2 * time.Millisecond})[0], Pass: Pass{
			Metrics: obs.Snapshot{Counters: map[string]uint64{
				"slicache.hits{bean=quote}":     30,
				"slicache.misses{bean=quote}":   10,
				"slicache.hits{bean=account}":   5,
				"slicache.misses{bean=account}": 5,
				"slicache.requests":             50, // unlabeled: ignored
			}},
			Events: []obs.Event{
				{Type: obs.EventConflict, Op: "sell", Bean: "quote", Key: "quote/s-1", Trace: 1, OtherTrace: 2, Age: 3 * time.Millisecond, Time: time.Unix(1000, 0)},
				{Type: obs.EventConflict, Op: "sell", Bean: "quote", Key: "quote/s-1", Trace: 3, OtherTrace: 4, Time: time.Unix(1001, 0)},
				{Type: obs.EventConflict, Op: "buy", Bean: "account", Key: "account/u-1", Time: time.Unix(1002, 0)},
				{Type: obs.EventInvalidation, Keys: 2, Evicted: 1, Latency: time.Millisecond, OtherTrace: 9, Time: time.Unix(1003, 0)},
				{Type: obs.EventInvalidation, Keys: 1, OtherTrace: 10, Time: time.Unix(1004, 0)},
			},
		}}},
	}
}

func TestWriteForensics(t *testing.T) {
	var b strings.Builder
	s := forensicsFixture()
	if err := WriteForensics(&b, s.Pair, s.Points); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"== forensics: ES/RBES / Cached EJBs ==",
		"-- delay 2.0ms --",
		"conflicts: 3",
		"sell", "quote", "buy", "account",
		"quote/s-1",
		"cache by bean:",
		"75.0%", // quote hit ratio 30/40
		"invalidations: 2 notices applied, 1 entries evicted",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("forensics report missing %q:\n%s", want, out)
		}
	}
	// The (op, bean) matrix is sorted by abort count: sell/quote first.
	if strings.Index(out, "sell") > strings.Index(out, "buy") {
		t.Fatalf("matrix not sorted by count:\n%s", out)
	}
}

func TestForensicsCSVWriters(t *testing.T) {
	s := forensicsFixture()
	var c strings.Builder
	if err := WriteConflictsCSV(&c, s.Points[0].Events); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(c.String()), "\n")
	if len(lines) != 4 { // header + 3 conflicts
		t.Fatalf("conflicts.csv rows = %d, want 4:\n%s", len(lines), c.String())
	}
	if lines[0] != "t_unix_ms,op,bean,key,loser_trace,winner_trace,read_age_ms" {
		t.Fatalf("conflicts.csv header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "sell,quote,quote/s-1,1,2,3.000") {
		t.Fatalf("conflicts.csv row 1 = %q", lines[1])
	}

	var i strings.Builder
	if err := WriteInvalidationCSV(&i, s.Points[0].Events); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(i.String()), "\n")
	if len(lines) != 3 { // header + 2 invalidations
		t.Fatalf("invalidation csv rows = %d, want 3:\n%s", len(lines), i.String())
	}
	if lines[0] != "t_unix_ms,origin_trace,keys,evicted,latency_ms,staleness_ms" {
		t.Fatalf("invalidation csv header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "9,2,1,1.000") {
		t.Fatalf("invalidation csv row 1 = %q", lines[1])
	}

	// Empty event sets still yield valid headed CSVs.
	var e strings.Builder
	if err := WriteConflictsCSV(&e, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(e.String()) != "t_unix_ms,op,bean,key,loser_trace,winner_trace,read_age_ms" {
		t.Fatalf("empty conflicts.csv = %q", e.String())
	}
}
