package wire

import "sync"

// OpStats aggregates one operation label (e.g. "AutoGet", "buy").
type OpStats struct {
	Count         uint64 // completed round trips
	Errors        uint64 // failed calls (transport error, deadline, cancel)
	Retries       uint64 // retry attempts consumed by the retry policy
	BytesSent     uint64
	BytesReceived uint64
	TraceBytes    uint64 // of the bytes above, traced requests' trace/span pairs
}

// Stats is a point-in-time snapshot of a Client's transport counters.
// Bytes include every frame's length prefix, so a snapshot agrees with
// what a delay proxy on the client's path forwards, byte for byte
// (internal/harness's TestWireBytesMatchProxy checks it on Figure 8's
// configurations).
type Stats struct {
	Dials         uint64
	RoundTrips    uint64 // completed request/response exchanges
	Pushes        uint64 // unsolicited frames (invalidation notices)
	BytesSent     uint64
	BytesReceived uint64
	// TraceBytes is the part of BytesSent and BytesReceived that the
	// trace/span pairs of traced request headers take: what tracing
	// the calls costs, not what the protocol does.
	TraceBytes uint64
	Errors     uint64 // failed calls
	Retries    uint64 // retry attempts consumed by retry policies
	Ops        map[string]OpStats
}

// Bytes returns total traffic in both directions.
func (s Stats) Bytes() uint64 { return s.BytesSent + s.BytesReceived }

// SystemBytes returns total traffic in both directions without the
// trace/span pairs: the bytes the protocol itself puts on the path.
func (s Stats) SystemBytes() uint64 { return s.Bytes() - s.TraceBytes }

// Sub returns the traffic between base, an earlier snapshot of the same
// endpoints, and s. Ops with no activity in between are left out.
func (s Stats) Sub(base Stats) Stats {
	out := Stats{
		Dials:         s.Dials - base.Dials,
		RoundTrips:    s.RoundTrips - base.RoundTrips,
		Pushes:        s.Pushes - base.Pushes,
		BytesSent:     s.BytesSent - base.BytesSent,
		BytesReceived: s.BytesReceived - base.BytesReceived,
		TraceBytes:    s.TraceBytes - base.TraceBytes,
		Errors:        s.Errors - base.Errors,
		Retries:       s.Retries - base.Retries,
		Ops:           make(map[string]OpStats),
	}
	for label, op := range s.Ops {
		b := base.Ops[label]
		if op == b {
			continue
		}
		out.Ops[label] = OpStats{
			Count:         op.Count - b.Count,
			Errors:        op.Errors - b.Errors,
			Retries:       op.Retries - b.Retries,
			BytesSent:     op.BytesSent - b.BytesSent,
			BytesReceived: op.BytesReceived - b.BytesReceived,
			TraceBytes:    op.TraceBytes - b.TraceBytes,
		}
	}
	return out
}

// MergeStats sums endpoint snapshots — the harness uses it to total
// the shared-path traffic of every client on one side of a topology.
func MergeStats(snaps ...Stats) Stats {
	var out Stats
	out.Ops = make(map[string]OpStats)
	for _, s := range snaps {
		out.Dials += s.Dials
		out.RoundTrips += s.RoundTrips
		out.Pushes += s.Pushes
		out.BytesSent += s.BytesSent
		out.BytesReceived += s.BytesReceived
		out.TraceBytes += s.TraceBytes
		out.Errors += s.Errors
		out.Retries += s.Retries
		for label, op := range s.Ops {
			agg := out.Ops[label]
			agg.Count += op.Count
			agg.Errors += op.Errors
			agg.Retries += op.Retries
			agg.BytesSent += op.BytesSent
			agg.BytesReceived += op.BytesReceived
			agg.TraceBytes += op.TraceBytes
			out.Ops[label] = agg
		}
	}
	return out
}

// collector is the mutable counterpart of Stats shared by the
// connections of one Client.
type collector struct {
	mu            sync.Mutex
	dials         uint64
	roundTrips    uint64
	pushes        uint64
	bytesSent     uint64
	bytesReceived uint64
	traceBytes    uint64
	errors        uint64
	retries       uint64
	ops           map[string]*OpStats
}

func newCollector() *collector {
	return &collector{ops: make(map[string]*OpStats)}
}

// op returns the aggregate for label; callers hold c.mu.
func (c *collector) op(label string) *OpStats {
	o := c.ops[label]
	if o == nil {
		o = &OpStats{}
		c.ops[label] = o
	}
	return o
}

func (c *collector) dial() {
	c.mu.Lock()
	c.dials++
	c.mu.Unlock()
}

func (c *collector) sent(label string, n int) {
	c.mu.Lock()
	c.bytesSent += uint64(n)
	c.op(label).BytesSent += uint64(n)
	c.mu.Unlock()
}

func (c *collector) received(label string, n int) {
	c.mu.Lock()
	c.bytesReceived += uint64(n)
	c.op(label).BytesReceived += uint64(n)
	c.mu.Unlock()
}

// traced records a traced request frame, already counted as sent or
// received, whose header carried the trace/span pair. A frame only part
// of which reached the socket is not recorded.
func (c *collector) traced(label string) {
	c.mu.Lock()
	c.traceBytes += tracePairBytes
	c.op(label).TraceBytes += tracePairBytes
	c.mu.Unlock()
}

func (c *collector) roundTrip(label string) {
	c.mu.Lock()
	c.roundTrips++
	c.op(label).Count++
	c.mu.Unlock()
}

// push records an unsolicited frame of n bytes received.
func (c *collector) push(label string, n int) {
	c.mu.Lock()
	c.pushes++
	c.bytesReceived += uint64(n)
	c.op(label).BytesReceived += uint64(n)
	c.mu.Unlock()
}

func (c *collector) retry(label string) {
	c.mu.Lock()
	c.retries++
	c.op(label).Retries++
	c.mu.Unlock()
}

func (c *collector) failure(label string) {
	c.mu.Lock()
	c.errors++
	c.op(label).Errors++
	c.mu.Unlock()
}

func (c *collector) snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Dials:         c.dials,
		RoundTrips:    c.roundTrips,
		Pushes:        c.pushes,
		BytesSent:     c.bytesSent,
		BytesReceived: c.bytesReceived,
		TraceBytes:    c.traceBytes,
		Errors:        c.errors,
		Retries:       c.retries,
		Ops:           make(map[string]OpStats, len(c.ops)),
	}
	for label, o := range c.ops {
		s.Ops[label] = *o
	}
	return s
}
