package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// EventType classifies a forensic event. The set is small and closed:
// events are for the handful of cache-coherence incidents worth a
// structured record each, not a general logging channel.
type EventType string

// Event types. The string values are the wire/JSON representation and
// are documented in OBSERVABILITY.md (CI cross-checks them).
const (
	// EventConflict is one optimistic commit abort, recorded by the
	// losing edge with the conflicting key and winner attribution.
	EventConflict EventType = "conflict"
	// EventInvalidation is one commit notice arriving at an edge cache,
	// with push latency and the staleness window it closed.
	EventInvalidation EventType = "invalidation"
	// EventStaleRead is a commit abort whose conflicting read was served
	// from the finder-result cache: the cached result had gone stale
	// before validation caught it. A clean run's forensics log contains
	// none — the invalidation stream kept the cache coherent.
	EventStaleRead EventType = "stale_read"
	// EventTwoPC is a noteworthy two-phase-commit outcome on the sharded
	// datacenter tier: a participant's presumed abort firing, or a
	// coordinator observing a heuristic (mixed) outcome in its second
	// phase. Clean 2PC commits and aborts are counted, not evented.
	EventTwoPC EventType = "twopc"
)

// Event is one forensic incident. Only the fields meaningful for the
// event's type are set; zero-valued fields are omitted from JSON.
type Event struct {
	// Seq is the log-assigned sequence number (monotonic from 1).
	Seq uint64 `json:"seq"`
	// Time is when the event was recorded.
	Time time.Time `json:"time"`
	Type EventType `json:"type"`
	// Op is the logical operation (trade action) in whose context the
	// event occurred, when known (see WithOp).
	Op string `json:"op,omitempty"`
	// Bean is the entity type (memento table) involved.
	Bean string `json:"bean,omitempty"`
	// Key is the primary involved row ("table/id"); for invalidations
	// with several keys, the first.
	Key string `json:"key,omitempty"`
	// Trace is the trace observing the event (the conflict loser; zero
	// for events outside any traced interaction).
	Trace uint64 `json:"trace,omitempty"`
	// OtherTrace is the counterparty: the conflict winner's trace, or an
	// invalidation notice's originating committer.
	OtherTrace uint64 `json:"other_trace,omitempty"`
	// Age is the type-specific staleness: a conflict loser's
	// read-version age, or the staleness window an invalidation closed.
	Age time.Duration `json:"age_ns,omitempty"`
	// Latency is an invalidation notice's push latency (commit at the
	// store to arrival at the edge).
	Latency time.Duration `json:"latency_ns,omitempty"`
	// Keys is how many keys an invalidation notice listed.
	Keys int `json:"keys,omitempty"`
	// Evicted is how many of those keys were actually cached (and
	// therefore dropped) at this edge.
	Evicted int `json:"evicted,omitempty"`
	// Detail carries a short free-form qualifier (e.g. a conflict's
	// message, or a 2PC outcome).
	Detail string `json:"detail,omitempty"`
}

// EventLog is a bounded ring of recent events. It allocates its
// capacity at the first event; like SpanLog, once the ring wraps each
// new event evicts the oldest and the eviction is counted, so drains
// can report incompleteness instead of silently missing incidents.
type EventLog struct {
	mu   sync.Mutex
	ring ring[Event]
	seq  uint64
}

// DefaultEvents is the process-wide event log; instrumented packages
// emit into it and /debug/events serves it.
var DefaultEvents = NewEventLog(4096)

// NewEventLog returns an empty ring that keeps the last n events (4096
// if n <= 0).
func NewEventLog(n int) *EventLog {
	return &EventLog{ring: newRing[Event](n)}
}

// Emit appends one event, assigning its sequence number (and its time,
// when unset) and returning the sequence. Safe for concurrent use.
func (l *EventLog) Emit(e Event) uint64 {
	l.mu.Lock()
	l.seq++
	e.Seq = l.seq
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	l.ring.add(e)
	seq := l.seq
	l.mu.Unlock()
	return seq
}

// Seq returns the sequence number of the most recently emitted event
// (zero when none). Callers snapshot it before a phase and pass it to
// Since afterwards to drain just that phase's events.
func (l *EventLog) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Dropped returns how many events this log evicted unread.
func (l *EventLog) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.dropped
}

// snapshot copies the ring oldest-first.
func (l *EventLog) snapshot() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.snapshot()
}

// Since returns every retained event with a sequence number greater
// than seq, oldest first — the incremental-drain primitive behind the
// harness's per-point forensics and the benchmark artifact writers
// (seq 0 drains everything retained).
func (l *EventLog) Since(seq uint64) []Event {
	all := l.snapshot()
	out := all[:0:0]
	for _, e := range all {
		if e.Seq > seq {
			out = append(out, e)
		}
	}
	return out
}

// WriteEventsJSONL writes events as JSON Lines: one Event object per
// line, the events.jsonl artifact format.
func WriteEventsJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// WriteEventsText renders events one per line for the /debug/events
// text view.
func WriteEventsText(w io.Writer, events []Event) error {
	for _, e := range events {
		if _, err := fmt.Fprintf(w, "%d %s %-12s op=%s bean=%s key=%s trace=%d other=%d age=%s latency=%s keys=%d evicted=%d %s\n",
			e.Seq, e.Time.Format(time.RFC3339Nano), e.Type, e.Op, e.Bean, e.Key,
			e.Trace, e.OtherTrace, fmtDur(e.Age), fmtDur(e.Latency),
			e.Keys, e.Evicted, e.Detail); err != nil {
			return err
		}
	}
	return nil
}
