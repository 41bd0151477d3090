package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgeejb/internal/obs"
)

// The golden tests pin every report byte for byte: the text tables,
// the CSV exports and the summary's keys, kinds and values, each
// rendered from the fixtures in fixtures_test.go and compared with a
// file under testdata/golden. A change meant to alter a report rewrites
// that file in the same change, so the difference is reviewed.

// checkGolden compares got with testdata/golden/name.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from %s\n--- got ---\n%s\n--- want ---\n%s", name, path, got, want)
	}
}

func TestGoldenEvaluationReports(t *testing.T) {
	e := fakeEvaluation()
	var all bytes.Buffer
	e.WriteAll(&all)
	checkGolden(t, "report.txt", all.Bytes())

	var actions bytes.Buffer
	WriteActionBreakdown(&actions, e.Fig6Series())
	checkGolden(t, "actions.txt", actions.Bytes())

	var breakdown bytes.Buffer
	for _, s := range e.Fig6Series() {
		WriteLatencyBreakdown(&breakdown, s)
	}
	checkGolden(t, "breakdown.txt", breakdown.Bytes())

	dir := t.TempDir()
	if err := e.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig6.csv", "fig7.csv", "table2.csv", "fig8.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, name, data)
	}
}

func TestGoldenForensics(t *testing.T) {
	var sweeps bytes.Buffer
	for _, s := range fakeEvaluation().Fig6Series() {
		if err := WriteForensics(&sweeps, s.Pair, s.Labelled()); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "forensics.txt", sweeps.Bytes())

	var curves bytes.Buffer
	for _, c := range throughputFixture() {
		if err := WriteForensics(&curves, c.Pair, c.Labelled()); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "throughput_forensics.txt", curves.Bytes())
}

func TestGoldenExtensionReports(t *testing.T) {
	var thru bytes.Buffer
	WriteThroughput(&thru, throughputFixture())
	checkGolden(t, "throughput.txt", thru.Bytes())

	var shards bytes.Buffer
	WriteShardScaling(&shards, shardFixture())
	checkGolden(t, "shards.txt", shards.Bytes())

	var shardsCSV bytes.Buffer
	if err := WriteShardsCSV(&shardsCSV, shardFixture()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "shards.csv", shardsCSV.Bytes())

	var faults bytes.Buffer
	WriteFaultReport(&faults, faultFixture())
	checkGolden(t, "faults.txt", faults.Bytes())
}

// TestGoldenSummary pins every summary metric the fixtures feed:
// names, kinds, directions, units, values and observation counts.
func TestGoldenSummary(t *testing.T) {
	s := BuildSummary(SummaryInput{
		Args:       []string{"-all"},
		Eval:       fakeEvaluation(),
		Throughput: throughputFixture(),
		Shards:     shardFixture(),
		Counters: map[string]uint64{
			"slicache.finder_hits":   80,
			"slicache.finder_misses": 20,
		},
		Runtime: &obs.Snapshot{
			Counters: map[string]uint64{
				"runtime.allocs_total":      1_000_000,
				"runtime.alloc_bytes_total": 64_000_000,
			},
			Gauges: map[string]int64{"runtime.goroutines_highwater": 42},
		},
	})
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.Metrics); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "summary_metrics.json", []byte(b.String()))
}
