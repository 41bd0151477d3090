package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFig6ContainsSeries(t *testing.T) {
	var sb strings.Builder
	fakeEvaluation().WriteFig6(&sb)
	out := sb.String()
	for _, want := range []string{
		"Figure 6", "Clients/RAS JDBC", "ES/RBES Cached EJBs", "ES/RDB JDBC", "sensitivity",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig6 output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteFig7ContainsSeries(t *testing.T) {
	var sb strings.Builder
	fakeEvaluation().WriteFig7(&sb)
	out := sb.String()
	for _, want := range []string{"Figure 7", "ES/RDB Cached EJBs", "ES/RDB Vanilla EJBs"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig7 output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTable2Structure(t *testing.T) {
	var sb strings.Builder
	fakeEvaluation().WriteTable2(&sb)
	out := sb.String()
	for _, want := range []string{"Table 2", "Cached EJBs", "JDBC", "Vanilla EJBs", "N/A", "13.0", "23.6", "9.4", "3.1"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 output missing %q:\n%s", want, out)
		}
	}
	// ES/RBES must have exactly two N/A cells.
	if got := strings.Count(out, "N/A"); got != 2 {
		t.Errorf("Table2 has %d N/A cells, want 2:\n%s", got, out)
	}
}

func TestWriteFig8Rows(t *testing.T) {
	var sb strings.Builder
	fakeEvaluation().WriteFig8(&sb)
	out := sb.String()
	if !strings.Contains(out, "Figure 8") || !strings.Contains(out, "bytes/interaction") {
		t.Errorf("Fig8 output malformed:\n%s", out)
	}
	if got := strings.Count(out, "bytes/interaction"); got != 3+1 { // 3 rows + header mention
		// header says "per client interaction", rows say "bytes/interaction"
		if got != 3 {
			t.Errorf("Fig8 rows = %d, want 3:\n%s", got, out)
		}
	}
}

func TestWriteTable1Complete(t *testing.T) {
	var sb strings.Builder
	WriteTable1(&sb)
	out := sb.String()
	for _, action := range []string{"login", "logout", "register", "home", "account",
		"accountUpdate", "portfolio", "quote", "buy", "sell"} {
		if !strings.Contains(out, action) {
			t.Errorf("Table1 missing action %q", action)
		}
	}
}

func TestWriteActionBreakdown(t *testing.T) {
	eval := fakeEvaluation()
	var sb strings.Builder
	WriteActionBreakdown(&sb, eval.Fig6Series())
	out := sb.String()
	for _, want := range []string{"Per-action", "login", "buy", "3.50", "7.25"} {
		if !strings.Contains(out, want) {
			t.Errorf("action breakdown missing %q:\n%s", want, out)
		}
	}
	// Table 1 ordering: login before buy.
	if strings.Index(out, "login") > strings.Index(out, "buy") {
		t.Error("actions not in Table 1 order")
	}
	// Empty input is a no-op.
	var empty strings.Builder
	WriteActionBreakdown(&empty, nil)
	if empty.Len() != 0 {
		t.Error("empty sweeps should render nothing")
	}
}

func TestWriteThroughputRendering(t *testing.T) {
	curves := []ThroughputCurve{{
		Pair: Pair{ESRBES, AlgCachedEJB},
		Points: []ThroughputPoint{
			{Clients: 1, Pass: Pass{Load: result(0, 120.5, 7.1, 0)}},
			{Clients: 4, Pass: Pass{Load: result(0, 300.2, 13.9, 2)}},
		},
	}}
	var sb strings.Builder
	WriteThroughput(&sb, curves)
	out := sb.String()
	for _, want := range []string{"throughput", "ES/RBES", "120.5", "300.2"} {
		if !strings.Contains(out, want) {
			t.Errorf("throughput output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	if err := fakeEvaluation().WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig6.csv", "fig7.csv", "table2.csv", "fig8.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) < 2 {
			t.Errorf("%s has %d lines, want header + data", name, len(lines))
		}
	}
	// Spot-check table2 values.
	data, _ := os.ReadFile(filepath.Join(dir, "table2.csv"))
	if !strings.Contains(string(data), "13.0000") || !strings.Contains(string(data), "23.6000") {
		t.Errorf("table2.csv missing sensitivities:\n%s", data)
	}
}
