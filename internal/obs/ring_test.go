package obs

import (
	"slices"
	"testing"
	"time"
)

// refRing is the ring as it was first written: its whole capacity
// allocated when the log is made. The ring that allocates at its first
// record must be indistinguishable from it through every reader.
type refRing[T any] struct {
	buf     []T
	next    int
	full    bool
	dropped uint64
}

func (r *refRing[T]) add(v T) {
	if r.full {
		r.dropped++
	}
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

func (r *refRing[T]) snapshot() []T {
	var out []T
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	return append(out, r.buf[:r.next]...)
}

// checkpoints are the record counts at which the logs are compared:
// the first few, either side of the capacity, and well into the wrap.
func checkpoints(size int) map[int]bool {
	at := map[int]bool{}
	for k := range 4 {
		at[k] = true
	}
	for _, k := range []int{size - 1, size, size + 1, 2*size - 1, 2 * size, 2*size + 3} {
		if k >= 0 {
			at[k] = true
		}
	}
	return at
}

// TestLogsAllocateAtFirstRecord checks the event and span logs against
// a pre-sized reference ring before, at and past the wrap, at small
// capacities and at tradebench's artifact ring (65,536): Seq, Since,
// Dropped, Recent, the trace /debug/spans assembles for ?trace= and
// ?last=1 agree with the reference; a new
// log holds no backing array until its first record; and from then on
// it holds exactly its capacity.
func TestLogsAllocateAtFirstRecord(t *testing.T) {
	base := time.Unix(1_000_000, 0)
	for _, size := range []int{1, 3, 100, 1 << 16} {
		events, spans := NewEventLog(size), NewSpanLog(size)
		if events.ring.buf != nil || spans.ring.buf != nil {
			t.Fatalf("size %d: a new log holds a backing array", size)
		}
		refEvents := &refRing[Event]{buf: make([]Event, size)}
		refSpans := &refRing[SpanRecord]{buf: make([]SpanRecord, size)}
		at := checkpoints(size)
		last := 0
		for k := range at {
			last = max(last, k)
		}
		for k := 0; k <= last; k++ {
			if at[k] {
				checkLogs(t, size, k, events, spans, refEvents, refSpans)
			}
			when := base.Add(time.Duration(k) * time.Millisecond)
			e := Event{Type: EventInvalidation, Time: when, Keys: k}
			e.Seq = events.Emit(e)
			refEvents.add(e)
			// Every third span is a root, and traces hold three spans.
			rec := SpanRecord{Trace: uint64(k/3 + 1), Span: uint64(k + 1), Name: "s", Start: when}
			if k%3 != 0 {
				rec.Parent = uint64(k)
			}
			spans.add(rec)
			refSpans.add(rec)
			if len(events.ring.buf) != size || len(spans.ring.buf) != size {
				t.Fatalf("size %d after %d records: backing arrays of %d and %d", size, k+1, len(events.ring.buf), len(spans.ring.buf))
			}
		}
	}
}

func checkLogs(t *testing.T, size, k int, events *EventLog, spans *SpanLog, refEvents *refRing[Event], refSpans *refRing[SpanRecord]) {
	t.Helper()
	if events.Seq() != uint64(k) {
		t.Fatalf("size %d after %d records: Seq = %d", size, k, events.Seq())
	}
	if events.Dropped() != refEvents.dropped || spans.Dropped() != refSpans.dropped {
		t.Fatalf("size %d after %d records: Dropped = %d, %d, want %d, %d", size, k, events.Dropped(), spans.Dropped(), refEvents.dropped, refSpans.dropped)
	}
	allEvents := refEvents.snapshot()
	for _, seq := range []uint64{0, uint64(k / 2), uint64(k)} {
		var want []Event
		for _, e := range allEvents {
			if e.Seq > seq {
				want = append(want, e)
			}
		}
		if got := events.Since(seq); !slices.EqualFunc(got, want, func(a, b Event) bool { return a == b }) {
			t.Fatalf("size %d after %d records: Since(%d) holds %d events, want %d", size, k, seq, len(got), len(want))
		}
	}
	allSpans := refSpans.snapshot()
	for _, n := range []int{0, 1, size / 2, size + 1} {
		want := allSpans
		if n > 0 && len(want) > n {
			want = want[len(want)-n:]
		}
		if got := spans.Recent(n); !slices.Equal(got, want) {
			t.Fatalf("size %d after %d records: Recent(%d) holds %d spans, want %d", size, k, n, len(got), len(want))
		}
	}
	if len(allSpans) > 0 {
		id := allSpans[0].Trace
		var want []SpanRecord
		for _, r := range allSpans {
			if r.Trace == id {
				want = append(want, r)
			}
		}
		var got []SpanRecord
		for _, s := range traceIn(spans.snapshot(), id).Spans {
			got = append(got, s.SpanRecord)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("size %d after %d records: trace %d = %v, want %v", size, k, id, got, want)
		}
	}
	wantLast := uint64(0)
	for i := len(allSpans) - 1; i >= 0; i-- {
		if allSpans[i].Parent == 0 {
			wantLast = allSpans[i].Trace
			break
		}
	}
	if wantLast == 0 && len(allSpans) > 0 {
		wantLast = allSpans[len(allSpans)-1].Trace
	}
	if got := lastTrace(spans.snapshot()); got != wantLast {
		t.Fatalf("size %d after %d records: last trace = %d, want %d", size, k, got, wantLast)
	}
}
