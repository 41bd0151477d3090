package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestEventLogEmitAndSince(t *testing.T) {
	l := NewEventLog(8)
	if l.Seq() != 0 {
		t.Fatalf("fresh log Seq = %d", l.Seq())
	}
	for i := 0; i < 5; i++ {
		seq := l.Emit(Event{Type: EventConflict, Bean: "quote"})
		if seq != uint64(i+1) {
			t.Fatalf("Emit #%d returned seq %d", i+1, seq)
		}
	}
	if l.Seq() != 5 {
		t.Fatalf("Seq = %d, want 5", l.Seq())
	}
	evs := l.Since(3)
	if len(evs) != 2 || evs[0].Seq != 4 || evs[1].Seq != 5 {
		t.Fatalf("Since(3) = %+v", evs)
	}
	if all := l.Since(0); len(all) != 5 {
		t.Fatalf("Since(0) returned %d events", len(all))
	}
	for i, e := range l.Since(0) {
		if e.Time.IsZero() {
			t.Fatalf("event %d has zero time", i)
		}
	}
}

func TestEventLogRingWrapsAndCountsDrops(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 7; i++ {
		l.Emit(Event{Type: EventInvalidation})
	}
	if l.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", l.Dropped())
	}
	all := l.Since(0)
	if len(all) != 4 {
		t.Fatalf("retained %d events, want 4", len(all))
	}
	// Oldest-first, and only the newest four survive.
	for i, e := range all {
		if want := uint64(i + 4); e.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, want)
		}
	}
}

func TestWriteEventsJSONL(t *testing.T) {
	l := NewEventLog(8)
	l.Emit(Event{Type: EventConflict, Op: "sell", Bean: "quote", Key: "quote/s-1",
		Trace: 11, OtherTrace: 22, Age: 3 * time.Millisecond})
	l.Emit(Event{Type: EventInvalidation, Keys: 2, Evicted: 1, Latency: time.Millisecond})

	var b strings.Builder
	if err := WriteEventsJSONL(&b, l.Since(0)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), b.String())
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if e.Type != EventConflict || e.Bean != "quote" || e.OtherTrace != 22 || e.Age != 3*time.Millisecond {
		t.Fatalf("round-tripped event = %+v", e)
	}
	// Zero-valued fields stay out of the JSON.
	if strings.Contains(lines[1], "other_trace") || strings.Contains(lines[1], `"op"`) {
		t.Fatalf("line 2 carries zero-valued fields: %s", lines[1])
	}
}

// TestDebugEventsEndpoint exercises /debug/events' text view and the
// 400-on-malformed-query contract shared with /debug/spans.
func TestDebugEventsEndpoint(t *testing.T) {
	events := NewEventLog(16)
	events.Emit(Event{Type: EventConflict, Op: "sell", Bean: "quote", Key: "quote/s-1", Trace: 5, OtherTrace: 6})
	events.Emit(Event{Type: EventTwoPC, Detail: "presumed abort"})

	srv, err := StartDebug("127.0.0.1:0", DebugOptions{
		Registry: NewRegistry(),
		Spans:    NewSpanLog(16),
		Events:   events,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string, wantStatus int) (string, http.Header) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s: status %d, want %d\n%s", path, resp.StatusCode, wantStatus, body)
		}
		return string(body), resp.Header
	}

	out, hdr := get("/debug/events", 200)
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(out, "events seq=2 dropped=0") ||
		!strings.Contains(out, "conflict") || !strings.Contains(out, "twopc") {
		t.Fatalf("/debug/events text unexpected:\n%s", out)
	}

	// Malformed queries are 400s, not silent defaults.
	get("/debug/events?since=banana", 400)
	get("/debug/events?since=-1", 400)
	get("/debug/events?format=xml", 400)
	get("/debug/spans?since=banana", 400)
	get("/debug/spans?format=xml", 400)
}
