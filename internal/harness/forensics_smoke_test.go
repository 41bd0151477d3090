package harness

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"edgeejb/internal/backend"
	"edgeejb/internal/dbwire"
	"edgeejb/internal/memento"
	"edgeejb/internal/obs"
	"edgeejb/internal/slicache"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/storeapi"
)

// TestForensicsSmoke is the end-to-end acceptance test for transaction
// forensics: two edges behind a real back-end server race on one quote
// row, and the loser's conflict event must name the conflicting bean
// key and the winner's trace, with the invalidation notice's push
// latency recorded on the way.
func TestForensicsSmoke(t *testing.T) {
	store := sqlstore.New()
	defer store.Close()
	quoteKey := memento.Key{Table: "quote", ID: "s-0"}
	store.Seed(memento.Memento{Key: quoteKey, Fields: memento.Fields{"price": memento.Int(100)}})
	ctx := context.Background()

	// Database tier behind its wire server.
	dbSrv := dbwire.NewServer(storeapi.Local(store))
	if err := dbSrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer dbSrv.Close()

	// Back-end server (split-servers): relays edge commits to the store.
	backendDB := dbwire.Dial(dbSrv.Addr())
	defer backendDB.Close()
	backendSrv := backend.NewServer(backendDB)
	if err := backendSrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer backendSrv.Close()

	// Two edge caches, each on its own connection to the back end.
	newEdge := func() *slicache.Manager {
		conn := dbwire.Dial(backendSrv.Addr())
		t.Cleanup(func() { _ = conn.Close() })
		mgr := slicache.NewManager(conn, slicache.WithShipping(slicache.WholeSet))
		t.Cleanup(mgr.Close)
		if err := mgr.Start(ctx); err != nil {
			t.Fatal(err)
		}
		return mgr
	}
	edgeA, edgeB := newEdge(), newEdge()

	seq0 := obs.DefaultEvents.Seq()
	obsBefore := obs.Default.Snapshot()

	// The loser (edge B) reads the quote first.
	loserCtx, loserTrace := obs.WithNewTrace(ctx)
	loserCtx = obs.WithOp(loserCtx, "sell")
	dtB, err := edgeB.Begin(loserCtx)
	if err != nil {
		t.Fatal(err)
	}
	mB, err := dtB.Load(loserCtx, quoteKey)
	if err != nil {
		t.Fatal(err)
	}

	// The winner (edge A) reads and commits a write through the back end.
	winnerCtx, winnerTrace := obs.WithNewTrace(ctx)
	dtA, err := edgeA.Begin(winnerCtx)
	if err != nil {
		t.Fatal(err)
	}
	mA, err := dtA.Load(winnerCtx, quoteKey)
	if err != nil {
		t.Fatal(err)
	}
	mA.Fields["price"] = memento.Int(110)
	if err := dtA.Store(winnerCtx, mA); err != nil {
		t.Fatal(err)
	}
	if err := dtA.Commit(winnerCtx); err != nil {
		t.Fatal(err)
	}

	// Wait for the winner's invalidation notice to reach the loser's edge.
	deadline := time.Now().Add(5 * time.Second)
	for edgeB.Stats().NoticesApplied < 1 {
		if time.Now().After(deadline) {
			t.Fatal("invalidation notice never reached edge B")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The loser now commits its stale read-set and must lose.
	mB.Fields["price"] = memento.Int(90)
	if err := dtB.Store(loserCtx, mB); err != nil {
		t.Fatal(err)
	}
	err = dtB.Commit(loserCtx)
	if !errors.Is(err, sqlstore.ErrConflict) {
		t.Fatalf("loser commit: got %v, want ErrConflict", err)
	}
	var ce *sqlstore.ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("loser error %T lost attribution across edge+backend", err)
	}
	if ce.Key != quoteKey || ce.WinnerTrace != winnerTrace {
		t.Errorf("wire conflict = (key %v, winner %d), want (%v, %d)",
			ce.Key, ce.WinnerTrace, quoteKey, winnerTrace)
	}

	// The conflict event names the bean key and both traces.
	events := obs.DefaultEvents.Since(seq0)
	var conflict *obs.Event
	for i := range events {
		if events[i].Type == obs.EventConflict {
			conflict = &events[i]
		}
	}
	if conflict == nil {
		t.Fatal("no conflict event emitted")
	}
	if conflict.Key != quoteKey.String() || conflict.Bean != "quote" {
		t.Errorf("conflict event key = %q bean = %q, want %q / %q",
			conflict.Key, conflict.Bean, quoteKey.String(), "quote")
	}
	if conflict.Trace != loserTrace || conflict.OtherTrace != winnerTrace {
		t.Errorf("conflict event traces = (%d, %d), want loser %d winner %d",
			conflict.Trace, conflict.OtherTrace, loserTrace, winnerTrace)
	}
	if conflict.Op != "sell" {
		t.Errorf("conflict event op = %q, want %q", conflict.Op, "sell")
	}
	if conflict.Age < 0 {
		t.Errorf("negative read age %v", conflict.Age)
	}

	// An invalidation event for the winner's commit reached edge B.
	var inval *obs.Event
	for i := range events {
		e := events[i]
		if e.Type == obs.EventInvalidation && e.OtherTrace == winnerTrace {
			inval = &events[i]
		}
	}
	if inval == nil {
		t.Fatal("no foreign invalidation event for the winner's commit")
	}
	if inval.Evicted < 1 {
		t.Errorf("invalidation evicted %d entries, want >= 1", inval.Evicted)
	}
	if inval.Latency < 0 || inval.Latency > time.Minute {
		t.Errorf("absurd push latency %v", inval.Latency)
	}

	// The push-latency histogram recorded the notice.
	diff := obs.Default.Diff(obsBefore)
	if got := diff.Histograms["slicache.invalidation_latency"].Count; got < 1 {
		t.Errorf("invalidation latency observations = %d, want >= 1", got)
	}
	if got := diff.Counters["slicache.conflicts"]; got != 1 {
		t.Errorf("slicache.conflicts diff = %d, want 1", got)
	}

	// The same events drain into non-empty run artifacts.
	art, err := NewArtifacts(t.TempDir(), []string{"forensics-smoke"})
	if err != nil {
		t.Fatal(err)
	}
	if err := art.WriteEvents(events); err != nil {
		t.Fatal(err)
	}
	if err := art.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(art.Dir, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest Manifest
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	indexed := make(map[string]bool)
	for _, f := range manifest.Files {
		indexed[f.Path] = true
	}
	for name, needle := range map[string]string{
		"events.jsonl":             `"type":"conflict"`,
		"conflicts.csv":            quoteKey.String(),
		"invalidation_latency.csv": "latency_ms",
	} {
		if !indexed[name] {
			t.Errorf("%s not indexed in MANIFEST.json", name)
		}
		body, err := os.ReadFile(filepath.Join(art.Dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(body), needle) {
			t.Errorf("%s missing %q:\n%s", name, needle, body)
		}
	}
	// conflicts.csv carries at least one data row beyond the header.
	body, _ := os.ReadFile(filepath.Join(art.Dir, "conflicts.csv"))
	if lines := strings.Count(strings.TrimSpace(string(body)), "\n"); lines < 1 {
		t.Errorf("conflicts.csv has no data rows:\n%s", body)
	}
}
